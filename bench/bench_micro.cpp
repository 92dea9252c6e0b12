// bench_micro — google-benchmark microbenchmarks of the substrate layers:
// event queue throughput, timer churn, multicast flooding, Gilbert–Elliott
// stepping, cache updates, the combination-solver DP, and the link
// estimators. These guard the simulator's performance envelope (a full
// Table-1 sweep executes hundreds of millions of events).

#include <benchmark/benchmark.h>

#include "cesrm/cache.hpp"
#include "harness/runner.hpp"
#include "infer/combination_solver.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "infer/minc_estimator.hpp"
#include "net/network.hpp"
#include "net/topology_builder.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "trace/catalog.hpp"
#include "trace/gilbert_elliott.hpp"
#include "trace/trace_generator.hpp"

namespace {

using namespace cesrm;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i)
      q.schedule(sim::SimTime::nanos(rng.uniform_int(0, 1000000)), [] {});
    sim::SimTime when;
    sim::EventQueue::Callback cb;
    sim::EventId id;
    while (q.pop(when, cb, id)) benchmark::DoNotOptimize(when);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // SRM suppression cancels most timers; exercise the lazy-deletion path.
  const std::size_t n = 8192;
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      ids.push_back(q.schedule(sim::SimTime::nanos(static_cast<std::int64_t>(i)),
                               [] {}));
    for (std::size_t i = 0; i < n; i += 2) q.cancel(ids[i]);
    sim::SimTime when;
    sim::EventQueue::Callback cb;
    sim::EventId id;
    while (q.pop(when, cb, id)) benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_EventQueueSlotReuse(benchmark::State& state) {
  // Steady-state schedule/cancel/pop churn against a warm queue: exercises
  // the generation-tagged slot pool's free-list reuse rather than pool
  // growth (the shape of a long-running simulation).
  sim::EventQueue q;
  std::int64_t t = 0;
  std::vector<sim::EventId> window;
  for (int i = 0; i < 1024; ++i)
    window.push_back(q.schedule(sim::SimTime::nanos(++t), [] {}));
  std::size_t next = 0;
  for (auto _ : state) {
    q.cancel(window[next]);
    window[next] = q.schedule(sim::SimTime::nanos(++t), [] {});
    next = (next + 1) % window.size();
    sim::SimTime when;
    sim::EventQueue::Callback cb;
    sim::EventId id;
    q.pop(when, cb, id);
    window[next] = q.schedule(sim::SimTime::nanos(++t), [] {});
    next = (next + 1) % window.size();
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_EventQueueSlotReuse);

void BM_TimerChurn(benchmark::State& state) {
  // Arm/re-arm/fire cycles through sim::Timer — the SRM request/reply
  // back-off machinery's view of the event core.
  sim::Simulator sim;
  int fired = 0;
  sim::Timer timer(sim, [&fired] { ++fired; });
  for (auto _ : state) {
    timer.arm(sim::SimTime::micros(2));
    timer.arm(sim::SimTime::micros(1));  // re-arm cancels the pending expiry
    sim.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_TimerChurn);

void BM_MulticastFlood(benchmark::State& state) {
  util::Rng rng(7);
  net::TreeShape shape;
  shape.receivers = static_cast<int>(state.range(0));
  shape.depth = 5;
  const auto tree = net::build_random_tree(shape, rng);
  sim::Simulator sim;
  net::Network network(sim, tree, {});
  for (auto _ : state) {
    network.multicast(tree.root(), net::make_data_packet(tree.root(), 0));
    sim.run();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(tree.link_count()) * state.iterations());
}
BENCHMARK(BM_MulticastFlood)->Arg(8)->Arg(15)->Arg(64);

void BM_Table1SweepE2E(benchmark::State& state) {
  // End-to-end wall time of a capped Table-1 sweep (trace generation
  // cached across iterations by the runner's TraceCache shape: we prepare
  // once and measure simulation + dispatch, like bench_paper's sweep).
  const auto spec = [&] {
    trace::TraceSpec s = trace::table1_spec(static_cast<int>(state.range(0)));
    const double scale = 2000.0 / static_cast<double>(s.packets);
    s.packets = 2000;
    s.losses = static_cast<std::int64_t>(static_cast<double>(s.losses) * scale);
    return s;
  }();
  const auto gen = trace::generate_trace(spec);
  const auto links = std::make_shared<infer::LinkTraceRepresentation>(
      *gen.loss, infer::estimate_links_yajnik(*gen.loss).loss_rate);
  harness::RunnerOptions ropts;
  ropts.jobs = 1;
  for (auto _ : state) {
    harness::ExperimentRunner runner(ropts);
    std::vector<harness::ExperimentJob> jobs;
    for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
      harness::ExperimentJob job;
      job.spec = spec;
      job.loss = gen.loss;
      job.links = links;
      job.protocol = protocol;
      jobs.push_back(std::move(job));
    }
    benchmark::DoNotOptimize(runner.run(std::move(jobs)));
  }
  state.SetItemsProcessed(2 * spec.packets * state.iterations());
}
BENCHMARK(BM_Table1SweepE2E)->Arg(1)->Arg(8);

void BM_GilbertElliottStep(benchmark::State& state) {
  auto ge = trace::GilbertElliott::from_rate_and_burst(0.05, 4.0);
  util::Rng rng(3);
  std::uint64_t losses = 0;
  for (auto _ : state) losses += ge.step(rng);
  benchmark::DoNotOptimize(losses);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GilbertElliottStep);

void BM_RecoveryCacheUpdate(benchmark::State& state) {
  ::cesrm::cesrm::RecoveryCache cache(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(5);
  net::SeqNo seq = 0;
  for (auto _ : state) {
    ::cesrm::cesrm::RecoveryTuple t;
    t.seq = seq++;
    t.requestor = static_cast<net::NodeId>(rng.uniform_int(1, 8));
    t.replier = static_cast<net::NodeId>(rng.uniform_int(1, 8));
    t.dist_requestor_source = rng.uniform(0.01, 0.1);
    t.dist_replier_requestor = rng.uniform(0.01, 0.1);
    benchmark::DoNotOptimize(cache.update(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecoveryCacheUpdate)->Arg(1)->Arg(64);

void BM_CombinationSolverUncached(benchmark::State& state) {
  util::Rng rng(11);
  net::TreeShape shape;
  shape.receivers = 15;
  shape.depth = 7;
  const auto tree = net::build_random_tree(shape, rng);
  std::vector<double> rates(tree.size(), 0.0);
  for (net::LinkId l : tree.links())
    rates[static_cast<std::size_t>(l)] = rng.uniform(0.005, 0.2);
  trace::LossPattern pattern = 1;
  const auto all =
      static_cast<trace::LossPattern>((1u << tree.receivers().size()) - 1);
  for (auto _ : state) {
    // Fresh solver each pattern so the memo never hits.
    infer::CombinationSolver solver(tree, rates, tree.receivers());
    benchmark::DoNotOptimize(solver.solve(pattern));
    pattern = pattern % all + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CombinationSolverUncached);

void BM_LinkEstimation(benchmark::State& state) {
  trace::TraceSpec spec;
  spec.name = "BM";
  spec.receivers = 10;
  spec.depth = 5;
  spec.period_ms = 40;
  spec.packets = 10000;
  spec.losses = 4000;
  spec.seed = 17;
  const auto gen = trace::generate_trace(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::estimate_links_yajnik(*gen.loss));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(spec.packets) * state.iterations());
}
BENCHMARK(BM_LinkEstimation);

void BM_MincEstimation(benchmark::State& state) {
  trace::TraceSpec spec;
  spec.name = "BM2";
  spec.receivers = 10;
  spec.depth = 5;
  spec.period_ms = 40;
  spec.packets = 10000;
  spec.losses = 4000;
  spec.seed = 19;
  const auto gen = trace::generate_trace(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::estimate_links_minc(*gen.loss));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(spec.packets) * state.iterations());
}
BENCHMARK(BM_MincEstimation);

void BM_ParallelForOverhead(benchmark::State& state) {
  // Cost of fanning trivial work out over the runner's thread pool —
  // bounds the per-job dispatch overhead of an ExperimentRunner sweep.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<unsigned>(state.range(1));
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    harness::parallel_for(n, workers,
                          [&](std::size_t i) { out[i] = i * i; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelForOverhead)->Args({256, 1})->Args({256, 4});

void BM_RunnerSmallSweep(benchmark::State& state) {
  // End-to-end ExperimentRunner sweep over a tiny trace: 2 protocols × 2
  // seeds with the preparation (generation + inference) pre-shared, so the
  // measurement isolates job dispatch + simulation.
  trace::TraceSpec spec;
  spec.name = "BM4";
  spec.receivers = 4;
  spec.depth = 3;
  spec.period_ms = 40;
  spec.packets = 300;
  spec.losses = 90;
  spec.seed = 29;
  const auto gen = trace::generate_trace(spec);
  const auto links = std::make_shared<infer::LinkTraceRepresentation>(
      *gen.loss, infer::estimate_links_yajnik(*gen.loss).loss_rate);
  harness::RunnerOptions ropts;
  ropts.jobs = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    harness::ExperimentRunner runner(ropts);
    std::vector<harness::ExperimentJob> jobs;
    for (int k = 0; k < 4; ++k) {
      harness::ExperimentJob job;
      job.spec = spec;
      job.loss = gen.loss;
      job.links = links;
      job.protocol = k % 2 ? Protocol::kCesrm : Protocol::kSrm;
      job.config.seed = static_cast<std::uint64_t>(1 + k / 2);
      jobs.push_back(std::move(job));
    }
    benchmark::DoNotOptimize(runner.run(std::move(jobs)));
  }
  state.SetItemsProcessed(4 * state.iterations());
}
BENCHMARK(BM_RunnerSmallSweep)->Arg(1)->Arg(4);

void BM_TraceGeneration(benchmark::State& state) {
  trace::TraceSpec spec;
  spec.name = "BM3";
  spec.receivers = 8;
  spec.depth = 4;
  spec.period_ms = 80;
  spec.packets = 5000;
  spec.losses = 2000;
  spec.seed = 23;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::generate_trace(spec));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(spec.packets) * state.iterations());
}
BENCHMARK(BM_TraceGeneration);

}  // namespace

BENCHMARK_MAIN();
