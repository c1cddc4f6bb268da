// Micro-benchmarks of the simulate stage at paper scale: raw event
// throughput, building the DES input from generated workload (kernel models
// over every rank and interval), and a full trace-driven simulation.

#include <benchmark/benchmark.h>

#include "bsst/engine.hpp"
#include "bsst/trace_sim.hpp"
#include "core/features.hpp"
#include "core/predictor.hpp"
#include "util/rng.hpp"

namespace {

using namespace picp;

class Bouncer final : public Component {
 public:
  Bouncer(ComponentId id, std::int64_t hops)
      : Component(id, "bouncer"), hops_(hops) {}
  void handle(Engine& engine, const Event& event) override {
    if (event.a < hops_)
      engine.schedule(id(), id(), 1e-6, 0, event.a + 1);
  }

 private:
  std::int64_t hops_;
};

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    engine.add_component(std::make_unique<Bouncer>(0, state.range(0)));
    engine.schedule(-1, 0, 0.0, 0, 0);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatch)->Arg(10000)->Arg(100000);

void BM_EventQueueChurn(benchmark::State& state) {
  EventQueue queue;
  Xoshiro256 rng(1);
  // Steady-state heap of 4096 events with push/pop churn.
  for (int i = 0; i < 4096; ++i) {
    Event e;
    e.time = rng.uniform(0, 1);
    queue.push(e);
  }
  double now = 0.0;
  for (auto _ : state) {
    Event e = queue.pop();
    now = e.time;
    e.time = now + rng.uniform(0, 1e-3);
    queue.push(e);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn);

// Predictor::sim_input on a synthetic workload: 12 intervals of loads,
// ghosts and 2000 migrations each, one linear model per kernel.
void BM_SimInput(benchmark::State& state) {
  const auto ranks = static_cast<Rank>(state.range(0));
  const std::size_t intervals = 12;
  const auto n = static_cast<std::uint64_t>(ranks);
  WorkloadResult workload;
  workload.num_ranks = ranks;
  workload.iterations.resize(intervals);
  workload.comp_real = CompMatrix(ranks, intervals);
  workload.comp_ghost = CompMatrix(ranks, intervals);
  workload.comm_real = CommMatrix(ranks, intervals);
  workload.comm_ghost = CommMatrix(ranks, intervals);
  Xoshiro256 rng(5);
  for (std::size_t t = 0; t < intervals; ++t) {
    for (Rank r = 0; r < ranks; ++r) {
      workload.comp_real.set(r, t,
                             static_cast<std::int64_t>(rng.uniform_below(64)));
      workload.comp_ghost.set(r, t,
                              static_cast<std::int64_t>(rng.uniform_below(16)));
    }
    for (int m = 0; m < 2000 && t > 0; ++m)
      workload.comm_real.add(static_cast<Rank>(rng.uniform_below(n)),
                             static_cast<Rank>(rng.uniform_below(n)), t, 1);
  }
  workload.elements_per_rank.assign(static_cast<std::size_t>(ranks), 2);
  ModelSet models;
  for (int k = 0; k < kNumKernels; ++k) {
    const auto kernel = static_cast<Kernel>(k);
    const auto features = kernel_features(kernel);
    std::string serialized = "linear 1e-6";
    for (std::size_t f = 0; f < features.size(); ++f) serialized += " 2e-8";
    models.set(kernel_name(kernel),
               ModelSet::parse_model(serialized, features), features);
  }
  const Predictor predictor(models, 0.024);
  for (auto _ : state) {
    const TraceSimInput input = predictor.sim_input(workload, NetworkParams{});
    benchmark::DoNotOptimize(input.compute_seconds.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ranks) *
                          static_cast<std::int64_t>(intervals));
}
BENCHMARK(BM_SimInput)->Arg(1044)->Arg(8352)->Unit(benchmark::kMillisecond);

void BM_TraceDrivenSim(benchmark::State& state) {
  const auto ranks = static_cast<Rank>(state.range(0));
  const std::size_t intervals = 80;
  TraceSimInput input;
  input.num_ranks = ranks;
  input.num_intervals = intervals;
  input.compute_seconds.resize(static_cast<std::size_t>(ranks) * intervals);
  Xoshiro256 rng(3);
  for (double& c : input.compute_seconds) c = rng.uniform(0, 1e-4);
  CommMatrix comm(ranks, intervals);
  for (std::size_t t = 1; t < intervals; ++t)
    for (int m = 0; m < 200; ++m)
      comm.add(static_cast<Rank>(rng.uniform_below(
                   static_cast<std::uint64_t>(ranks))),
               static_cast<Rank>(rng.uniform_below(
                   static_cast<std::uint64_t>(ranks))),
               t, 5);
  input.comm_real = &comm;
  for (auto _ : state) {
    const SimReport report = run_trace_simulation(input);
    benchmark::DoNotOptimize(report.total_seconds);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ranks) *
                          static_cast<std::int64_t>(intervals));
}
BENCHMARK(BM_TraceDrivenSim)->Arg(1044)->Arg(4176)->Unit(benchmark::kMillisecond);

}  // namespace
