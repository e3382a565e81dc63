// P1: performance microbenchmarks (google-benchmark) for the hot paths of
// the library: non-fading SINR evaluation, the Theorem-1 closed form,
// Rayleigh slot sampling, greedy capacity, and one RWM game round.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>

#include "raysched.hpp"

using namespace raysched;

namespace {

model::Network make_network(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed);
  model::RandomPlaneParams params;
  params.num_links = n;
  auto links = model::random_plane_links(params, rng);
  return model::Network(std::move(links), model::PowerAssignment::uniform(2.0),
                        2.2, units::Power(4e-7));
}

model::LinkSet all_links(std::size_t n) {
  model::LinkSet ids(n);
  std::iota(ids.begin(), ids.end(), model::LinkId{0});
  return ids;
}

void BM_SinrNonFadingAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 1);
  const auto active = all_links(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::sinr_nonfading_all(net, active));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SinrNonFadingAll)->Arg(25)->Arg(50)->Arg(100)->Complexity();

void BM_RayleighClosedForm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 2);
  const auto active = all_links(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::expected_successes_rayleigh(net, active, units::Threshold(2.5)));
  }
}
BENCHMARK(BM_RayleighClosedForm)->Arg(25)->Arg(50)->Arg(100);

void BM_RayleighSlotSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 3);
  const auto active = all_links(n);
  util::RngStream rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::count_successes_rayleigh(net, active, units::Threshold(2.5), rng));
  }
}
BENCHMARK(BM_RayleighSlotSample)->Arg(25)->Arg(50)->Arg(100);

void BM_Theorem1Probability(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 4);
  std::vector<double> q(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::rayleigh_success_probability(net, units::probabilities(q), 0, units::Threshold(2.5)));
  }
}
BENCHMARK(BM_Theorem1Probability)->Arg(25)->Arg(100);

void BM_Theorem1BatchEvaluate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 4);
  const auto q = units::probabilities(std::vector<double>(n, 0.5));
  core::SuccessProbabilityKernel kernel(net, units::Threshold(2.5));
  std::vector<double> out(n);
  for (auto _ : state) {
    kernel.evaluate(q, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Theorem1BatchEvaluate)->Arg(25)->Arg(100)->Arg(400)->Complexity();

void BM_GreedyCapacity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::greedy_capacity(net, 2.5));
  }
}
BENCHMARK(BM_GreedyCapacity)->Arg(25)->Arg(50)->Arg(100);

void BM_PowerControlCapacity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::power_control_capacity(net, 2.5));
  }
}
BENCHMARK(BM_PowerControlCapacity)->Arg(25)->Arg(50);

void BM_RwmGameRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 7);
  util::RngStream rng(7);
  learning::GameOptions opts;
  opts.rounds = 1;
  opts.beta = 2.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(learning::run_capacity_game(
        net, opts, [] { return std::make_unique<learning::RwmLearner>(); },
        rng));
  }
}
BENCHMARK(BM_RwmGameRound)->Arg(50)->Arg(200);

void BM_SimulationScheduleBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 8);
  std::vector<double> q(n, 0.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_simulation_schedule(net, units::probabilities(q)));
  }
}
BENCHMARK(BM_SimulationScheduleBuild)->Arg(100);

void BM_ExactBnB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto net = make_network(n, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithms::exact_max_feasible_set(net, 2.5));
  }
}
BENCHMARK(BM_ExactBnB)->Arg(10)->Arg(14);

}  // namespace

BENCHMARK_MAIN();
