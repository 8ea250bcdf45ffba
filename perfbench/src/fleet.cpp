// serve_fleet: a ClusterService front door over two simulated shards on the
// virtual clock, pumped inline by the benchmark. The job mix is one
// mnist_host training job per shard and one open-loop Poisson inference
// tenant per shard (resnet50_host forward, 60 ms deadline, width floor 8).
// The arrival traces are replayed at every rung of a fixed ladder of
// per-tenant rates; the base rung supplies the latency and attainment
// figures. Virtual-clock books are a deterministic function of the seed, so
// every repeat of a rung must book them identically; only the wall time of
// the pumps varies.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "models/models.hpp"
#include "models/zoo.hpp"
#include "serve/cluster_service.hpp"
#include "serve/traffic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace opsched;

namespace {

constexpr std::size_t kShards = 2;
constexpr double kDeadlineMs = 60.0;
constexpr int kWidthFloor = 8;
constexpr std::int64_t kTrainBatch = 2;
/// Steps per training job.
constexpr int kTrainSteps = 2000;
/// Per-tenant request rates (req/s) of the ladder, and its base rung.
constexpr double kLadder[] = {2.0, 6.0, 12.0, 24.0};
constexpr double kBaseRps = 6.0;
/// Requests each rung replays over the fleet (its traces last as long as
/// that takes at the rung's rate), so p99s rest on a fixed sample size; the
/// base rung, whose figures are reported, replays more.
constexpr double kRequestsPerRung = 1500.0;
constexpr double kBaseRequests = 5000.0;
/// step_ms_tail's percentile of the base rung's fleet steps. The ~15
/// virtual seconds in which training runs are the costliest steps and pass
/// in a fraction of a wall second, so a percentile that reaches past them
/// would rest on that fraction alone.
constexpr double kStepTailPercentile = 90.0;
/// Ladder repeats a run makes at least, whatever --seconds says: a pump's
/// cost is its fastest repeat.
constexpr std::size_t kMinRepeats = 3;
/// Set-ups of the base rung a run makes before each ladder repeat, apart
/// from the ladder's own; setup_s is their lower quartile.
constexpr int kSetupsPerRepeat = 15;
/// The host workloads' serving probe replays the base rung with this many.
constexpr double kProbeRequests = 300.0;

/// Virtual length of each tenant's arrival trace at `rate` req/s.
double trace_ms(double rate, double requests) {
  return requests / (static_cast<double>(kShards) * rate) * 1000.0;
}
double rung_trace_ms(double rate) {
  return trace_ms(rate, rate == kBaseRps ? kBaseRequests : kRequestsPerRung);
}

/// One replay of the job mix at one rate.
struct RungRun {
  double rate = 0.0;
  std::vector<double> pump_us;      // every pump after the first
  std::vector<double> pump_end_ms;  // the fleet's virtual clock after each
  std::vector<double> snapshot_ms;  // the snapshot after each of those
  std::size_t arrivals = 0;
  std::size_t timed_requests = 0;  // requests served after the first pump
  serve::FleetSnapshot snap;       // the books at the end

  double pump_us_total() const {
    double s = 0.0;
    for (double x : pump_us) s += x;
    return s;
  }

  /// Wall ms of pumping per virtual second of the fleet, for every second
  /// in which a pump ended: a fleet step is one virtual second. Single
  /// pumps are no use as steps: their cost is multimodal (a third of them
  /// find no work), so a percentile of them jumps between modes with the
  /// arrival trace.
  std::vector<double> step_ms() const {
    std::map<double, double> per_second;
    for (std::size_t i = 0; i < pump_us.size(); ++i)
      per_second[std::floor(pump_end_ms[i] / 1000.0)] += pump_us[i] / 1000.0;
    std::vector<double> out;
    for (const auto& [second, ms] : per_second) out.push_back(ms);
    return out;
  }
};

std::vector<const serve::JobRecord*> records(const serve::FleetSnapshot& s,
                                             serve::JobKind kind) {
  std::vector<const serve::JobRecord*> out;
  for (const serve::FleetJob& j : s.jobs)
    if (j.record.kind == kind) out.push_back(&j.record);
  return out;
}

std::size_t served(const serve::FleetSnapshot& s) {
  std::size_t n = 0;
  for (const serve::JobRecord* r : records(s, serve::JobKind::kInference))
    n += static_cast<std::size_t>(r->steps_done);
  return n;
}

/// The virtual-clock books two replays of one rung must agree on exactly.
std::string books(const serve::FleetSnapshot& s) {
  std::ostringstream out;
  out.precision(17);
  out << s.completed << ' ' << s.cancelled << ' ' << s.placements << ' '
      << s.migrations << ' ' << s.steps_run << ' ' << s.reconfigurations
      << ' ' << s.stepped_service_ms << ' ' << s.now_ms;
  for (const serve::FleetJob& j : s.jobs)
    out << " | " << j.shard << ' ' << j.record.steps_done << ' '
        << j.record.finish_ms << ' ' << j.record.service_ms << ' '
        << j.record.run_ms << ' ' << j.record.slo_hits << ' '
        << j.record.p99_latency_ms;
  return out.str();
}

/// A rung's fleet once set up: graphs built, arrival traces drawn, the
/// cluster constructed, every job submitted and the first pump run (it
/// places every job and profiles it).
struct Fleet {
  std::unique_ptr<serve::ClusterService> cluster;
  serve::FleetSnapshot snap;  // after the first pump
  std::size_t arrivals = 0;
  double setup_ms = 0.0;
};

Fleet set_up(Context& ctx, double rate, double trace_ms) {
  Fleet fleet;
  const double t0 = now_ms();
  std::vector<serve::JobSpec> specs;
  {
    Span span(ctx.tracer, "models", "build");
    const Graph train = build_mnist_host(kTrainBatch);
    const Graph infer = models::zoo_find("resnet50_host")->build_forward(1);
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      serve::JobSpec t;
      t.name = "train" + std::to_string(shard);
      t.graph = train;
      t.steps = kTrainSteps;
      specs.push_back(std::move(t));
      serve::JobSpec i;
      i.name = "infer" + std::to_string(shard);
      i.kind = serve::JobKind::kInference;
      i.graph = infer;
      i.arrivals =
          serve::poisson_trace(rate, trace_ms, mix64(ctx.seed, shard));
      i.deadline_ms = kDeadlineMs;
      i.width_floor = kWidthFloor;
      fleet.arrivals += i.arrivals.size();
      specs.push_back(std::move(i));
    }
  }
  serve::ClusterServiceOptions opt;
  opt.num_shards = kShards;
  opt.service.substrate = serve::Substrate::kSimulated;
  opt.service.clock = serve::ClockMode::kVirtual;
  {
    Span span(ctx.tracer, "serve", "ClusterService");
    fleet.cluster =
        std::make_unique<serve::ClusterService>(MachineSpec::knl(), opt);
  }
  {
    Span span(ctx.tracer, "serve", "submit");
    for (serve::JobSpec& spec : specs) fleet.cluster->submit(std::move(spec));
  }
  ctx.tracer.begin_group();
  {
    Span span(ctx.tracer, "serve", "run_pump");
    fleet.cluster->run_pump();
  }
  fleet.snap = fleet.cluster->snapshot();
  fleet.setup_ms = now_ms() - t0;
  return fleet;
}

RungRun replay(Context& ctx, double rate, double trace_ms) {
  RungRun run;
  run.rate = rate;
  Span rung_span(ctx.tracer, "bench", "rung");
  Fleet fleet = set_up(ctx, rate, trace_ms);
  run.arrivals = fleet.arrivals;
  serve::FleetSnapshot snap = std::move(fleet.snap);
  const std::size_t served_in_setup = served(snap);

  // Pump until every job is terminal; each pump steps every shard once.
  while (snap.completed + snap.cancelled < snap.jobs.size()) {
    ctx.tracer.begin_group();
    Span span(ctx.tracer, "bench", "pump");
    bool progress = false;
    {
      Span inner(ctx.tracer, "serve", "run_pump");
      const double p0 = now_ms();
      progress = fleet.cluster->run_pump();
      run.pump_us.push_back((now_ms() - p0) * 1000.0);
    }
    {
      Span inner(ctx.tracer, "serve", "snapshot");
      const double s0 = now_ms();
      snap = fleet.cluster->snapshot();
      run.snapshot_ms.push_back(now_ms() - s0);
    }
    run.pump_end_ms.push_back(snap.now_ms);
    if (!progress) break;
  }
  ctx.tracer.end_group();
  run.timed_requests = served(snap) - served_in_setup;
  run.snap = std::move(snap);
  return run;
}

/// The correctness gates of one replay; every arrival and every training
/// job is one attempt.
void gate(Context& ctx, const RungRun& run) {
  const serve::FleetSnapshot& s = run.snap;
  const std::string at = " at " + std::to_string(run.rate) + " req/s";
  double job_service = 0.0;
  for (const serve::FleetJob& j : s.jobs) {
    const serve::JobRecord& r = j.record;
    job_service += r.service_ms;
    if (r.kind == serve::JobKind::kTraining) {
      ctx.report.attempt(r.state == serve::JobState::kCompleted &&
                             r.steps_done == r.steps_total,
                         "training job " + r.name + " not completed" + at);
      continue;
    }
    const auto total = static_cast<std::size_t>(r.steps_total);
    const auto done = r.state == serve::JobState::kCompleted
                          ? static_cast<std::size_t>(r.steps_done)
                          : 0;
    ctx.report.attempts(total, total - std::min(done, total),
                        "requests of " + r.name + " never served" + at);
  }
  ctx.report.check(served(s) == run.arrivals,
                   "requests served differ from arrivals" + at);
  ctx.report.check(
      std::abs(job_service - s.stepped_service_ms) <=
          1e-9 * std::max(1.0, s.stepped_service_ms),
      "job service_ms does not sum to the fleet's stepped_service_ms" + at);
}

struct RungFigures {
  double worst_p99_ms = 0.0;
  double attainment = 0.0;
  double train_steps_per_s = 0.0;
};

RungFigures figures(const RungRun& run) {
  RungFigures f;
  double hits = 0.0, served_n = 0.0, train_steps = 0.0, lifetime = 0.0;
  for (const serve::JobRecord* r :
       records(run.snap, serve::JobKind::kInference)) {
    f.worst_p99_ms = std::max(f.worst_p99_ms, r->p99_latency_ms);
    hits += static_cast<double>(r->slo_hits);
    served_n += r->steps_done;
  }
  for (const serve::JobRecord* r :
       records(run.snap, serve::JobKind::kTraining)) {
    train_steps += r->steps_done;
    lifetime += r->finish_ms - r->submit_ms;
  }
  f.attainment = hits / served_n;
  f.train_steps_per_s = train_steps / lifetime * 1000.0;
  return f;
}

/// The serve and cluster per-layer metrics of one (base-rung) replay.
void emit_serve_layers(Context& ctx, const RungRun& run) {
  Report& rep = ctx.report;
  const serve::FleetSnapshot& s = run.snap;
  const Tail tail = tail_of(run.pump_us);
  rep.metric("serve.pump_us_p50", median(run.pump_us), "us");
  rep.metric("serve.pump_us_tail", tail.value, "us");
  const std::size_t quarter = run.pump_us.size() / 4;
  const std::vector<double> first(run.pump_us.begin(),
                                  run.pump_us.begin() + quarter);
  const std::vector<double> last(run.pump_us.end() - quarter,
                                 run.pump_us.end());
  rep.metric("serve.pump_growth", median(last) / median(first),
             "ratio");
  rep.metric("serve.snapshot_ms", median(run.snapshot_ms), "ms");
  rep.metric("serve.steps_run", static_cast<double>(s.steps_run), "count");
  rep.metric("serve.requests_per_step",
             static_cast<double>(served(s)) / static_cast<double>(s.steps_run),
             "ratio");
  rep.metric("serve.reconfigurations", static_cast<double>(s.reconfigurations),
             "count");
  // The queueing part of the tail: p99 latency minus the mean step that
  // serves a request, for the worst tenant.
  double wait = 0.0;
  for (const serve::JobRecord* r : records(s, serve::JobKind::kInference))
    wait = std::max(wait, r->p99_latency_ms - r->run_ms / r->steps_done);
  rep.metric("serve.queue_wait_ms", wait, "ms");

  std::vector<double> busy;
  for (const serve::ServiceSnapshot& shard : s.shards)
    busy.push_back(shard.stepped_service_ms);
  std::vector<double> inference_on(kShards, 0.0);
  for (const serve::FleetJob& j : s.jobs)
    if (j.record.kind == serve::JobKind::kInference && j.shard < kShards)
      inference_on[j.shard] += 1.0;
  rep.metric("cluster.placements", static_cast<double>(s.placements), "count");
  rep.metric("cluster.migrations", static_cast<double>(s.migrations), "count");
  rep.metric("cluster.shard_balance", jain_index(busy), "frac");
  rep.metric("cluster.inference_per_shard_max",
             *std::max_element(inference_on.begin(), inference_on.end()),
             "count");
  ctx.log << "serve: " << s.steps_run << " steps, " << served(s)
          << " requests, " << run.pump_us.size() << " pumps, pump p50 "
          << median(run.pump_us) << " us, tail p" << tail.percentile
          << " " << tail.value << " us\n";
}

std::vector<Graph> fleet_graphs() {
  std::vector<Graph> g;
  g.push_back(build_mnist_host(kTrainBatch));
  g.push_back(models::zoo_find("resnet50_host")->build_forward(1));
  return g;
}

/// The whole ladder once; returns the runs in ladder order.
std::vector<RungRun> ladder(Context& ctx) {
  std::vector<RungRun> runs;
  for (const double rate : kLadder) {
    runs.push_back(replay(ctx, rate, rung_trace_ms(rate)));
    gate(ctx, runs.back());
  }
  return runs;
}

/// The highest rung up to which every rung keeps every inference tenant's
/// p99 within its deadline (0 when the lowest rung already misses).
double max_rps_at_slo(const std::vector<RungRun>& runs) {
  double rate = 0.0;
  for (const RungRun& r : runs) {
    if (figures(r).worst_p99_ms > kDeadlineMs) break;
    rate = r.rate;
  }
  return rate;
}

std::size_t base_index() {
  return static_cast<std::size_t>(std::find(std::begin(kLadder),
                                            std::end(kLadder), kBaseRps) -
                                  std::begin(kLadder));
}

/// Rung `rung` of the first ladder repeat with each pump's wall time
/// replaced by its fastest over the repeats. A replay is a deterministic
/// function of the seed, so every repeat runs the same pumps on the same
/// books; the host's interference only ever adds time to a pump, and comes
/// in episodes of a second or two, so a pump's fastest repeat is its cost.
RungRun fastest(Context& ctx, const std::vector<std::vector<RungRun>>& reps,
                std::size_t rung) {
  RungRun best = reps.front()[rung];
  for (const std::vector<RungRun>& l : reps) {
    const RungRun& r = l[rung];
    if (r.pump_us.size() != best.pump_us.size()) {
      ctx.report.check(false, "ladder repeat ran a different number of pumps");
      continue;
    }
    for (std::size_t i = 0; i < r.pump_us.size(); ++i)
      best.pump_us[i] = std::min(best.pump_us[i], r.pump_us[i]);
  }
  return best;
}

void emit_end_to_end(Context& ctx,
                     const std::vector<std::vector<RungRun>>& reps,
                     const std::vector<double>& setup_s) {
  Report& rep = ctx.report;
  const std::vector<RungRun>& runs = reps.front();
  const RungFigures f = figures(runs[base_index()]);
  double pump_us = 0.0, requests = 0.0;
  std::vector<double> steps;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RungRun best = fastest(ctx, reps, i);
    const RungFigures rf = figures(best);
    ctx.log << "rung " << best.rate << " req/s: " << best.arrivals
            << " requests, worst p99 " << rf.worst_p99_ms
            << " ms, attainment " << rf.attainment << ", train "
            << rf.train_steps_per_s << " steps/s, pump "
            << best.pump_us_total() / 1000.0 << " ms (fastest of "
            << reps.size() << ")\n";
    pump_us += best.pump_us_total();
    requests += static_cast<double>(best.timed_requests);
    if (i == base_index()) steps = best.step_ms();
  }
  rep.metric("step_ms_p50", median(steps), "ms");
  rep.metric("step_ms_tail", percentile(steps, kStepTailPercentile), "ms");
  rep.metric("setup_s", percentile(setup_s, 25.0), "s");
  rep.metric("train_steps_per_s", f.train_steps_per_s, "steps/s");
  rep.metric("latency_p99_ms", f.worst_p99_ms, "ms");
  rep.metric("slo_attainment", f.attainment, "frac");
  rep.metric("max_rps_at_slo", max_rps_at_slo(runs), "req/s");
  rep.metric("replay_us_per_request", pump_us / requests, "us");
  ctx.log << "ladder replayed " << reps.size() << " times; base rung "
          << kBaseRps << " req/s, " << steps.size()
          << " fleet steps of one virtual second; " << setup_s.size()
          << " set-ups\n";
}

}  // namespace

void run_serve_fleet(Context& ctx) {
  if (!ctx.traced) {
    // The whole ladder, then repeats while time remains (at least
    // kMinRepeats); every repeat must book exactly what the first did.
    // Before each, set-up alone, repeated: one takes about a millisecond.
    std::vector<std::vector<RungRun>> reps;
    std::vector<double> setup_s;
    const double stop = now_ms() + ctx.seconds * 1000.0;
    double last_ms = 0.0;
    do {
      const double t0 = now_ms();
      for (int i = 0; i < kSetupsPerRepeat; ++i) {
        setup_s.push_back(
            set_up(ctx, kBaseRps, rung_trace_ms(kBaseRps)).setup_ms / 1000.0);
        ctx.tracer.end_group();
      }
      reps.push_back(ladder(ctx));
      last_ms = now_ms() - t0;
      for (std::size_t i = 0; i < reps.back().size(); ++i)
        ctx.report.check(books(reps.back()[i].snap) == books(reps[0][i].snap),
                         "ladder repeat booked different virtual-clock "
                         "results");
    } while (reps.size() < kMinRepeats || now_ms() + last_ms <= stop);
    emit_end_to_end(ctx, reps, setup_s);
    return;
  }

  // Traced run: the base rung untraced, then traced; the books must agree
  // and the replay cost difference is the tracing overhead.
  ctx.tracer.set_enabled(false);
  const RungRun plain = replay(ctx, kBaseRps, rung_trace_ms(kBaseRps));
  gate(ctx, plain);
  ctx.tracer.set_enabled(true);
  const RungRun traced = replay(ctx, kBaseRps, rung_trace_ms(kBaseRps));
  gate(ctx, traced);
  ctx.report.check(books(plain.snap) == books(traced.snap),
                   "traced and untraced base-rung replays booked different "
                   "virtual-clock results");
  const double plain_us = plain.pump_us_total() / plain.timed_requests;
  const double traced_us = traced.pump_us_total() / traced.timed_requests;
  ctx.report.metric("trace.overhead_frac", traced_us / plain_us - 1.0, "frac");
  ctx.log << "tracing overhead: " << traced_us << " us/request traced vs "
          << plain_us << " untraced\n";
  emit_serve_layers(ctx, traced);

  const std::vector<Graph> graphs = fleet_graphs();
  machine_probe(ctx, {&graphs[0], &graphs[1]});
  threading_probe(ctx);
  HostPlan plan;
  plan.build = [](std::size_t) { return fleet_graphs(); };
  plan.tenant_graph = {0, 1};
  plan.tensor_seed = ctx.seed;
  host_layer_probe(ctx, plan, /*seconds=*/2.0);
}

void fleet_layer_probe(Context& ctx) {
  const RungRun run = replay(ctx, kBaseRps, trace_ms(kBaseRps, kProbeRequests));
  gate(ctx, run);
  emit_serve_layers(ctx, run);
}

}  // namespace perfbench
