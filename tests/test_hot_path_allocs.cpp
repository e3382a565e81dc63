// Runtime pin for the hot-path memory discipline that tools/raysched_check
// checks lexically: after warm-up, the steady-state serving slot loop, the
// max-weight recompute (oracle compute plus Theorem-1 pricing), the
// out-buffer sinr_rayleigh_all and rayleigh_successes,
// count_successes_rayleigh and a refilled Network::assign_restriction
// perform ZERO heap allocations. The counting operator new below is
// program-wide for this binary but purely passive (it forwards to malloc
// and only bumps an atomic), so coexisting tests are unaffected; ctest
// runs each test in its own process, so the counter sees only this file's
// work during its assertions.
//
// Measurement technique for the slot loop: Service::run(slots) has a small
// constant per-run allocation overhead (one digests.reserve, the report
// handoff) plus `slots` iterations of the slot loop. Comparing the
// allocation deltas of run(256) and run(512) cancels the constant: equal
// deltas prove the per-slot cost is exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "test_helpers.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace

// Counting global operator new/delete. Replacing the plain (unaligned)
// forms is enough: every container in the hot paths holds scalar types.
// Over-aligned allocations keep the library default, which pairs with the
// default aligned delete, so the two families never mix.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace raysched {
namespace {

using raysched::testing::paper_network;

serve::ServeConfig steady_config(core::Propagation propagation) {
  serve::ServeConfig config;
  config.master_seed = 31;
  config.beta = units::Threshold(2.5);
  config.propagation = propagation;
  config.traffic.model = serve::TrafficModel::Poisson;
  config.traffic.mean_rate = 0.3;
  config.queue_cap = 256;
  // One recompute during warm-up, then quiescent: the steady-state loop is
  // pure serving. The recompute path still allocates; the
  // RecomputeSlots* pins below bound it.
  config.recompute_period = 1'000'000;
  config.agent_threads = 1;
  return config;
}

void expect_zero_alloc_slots(
    core::Propagation propagation,
    serve::PolicyKind policy = serve::PolicyKind::MaxWeight) {
  serve::ServeConfig config = steady_config(propagation);
  config.policy = policy;
  serve::Service service(paper_network(16, 77), config);

  // Warm-up: scratch buffers reach their fixed capacities, the first
  // recompute is adopted, every queue has seen traffic.
  (void)service.run(64);

  const std::uint64_t base = alloc_count();
  (void)service.run(256);
  const std::uint64_t delta_short = alloc_count() - base;
  const std::uint64_t mid = alloc_count();
  (void)service.run(512);
  const std::uint64_t delta_long = alloc_count() - mid;

  // Equal deltas across different slot counts: zero allocations per slot.
  EXPECT_EQ(delta_short, delta_long)
      << "slot loop allocates per slot: " << delta_short << " allocs over "
      << "256 slots vs " << delta_long << " over 512";
  // And the per-run constant itself stays tiny (reserve + report handoff).
  EXPECT_LE(delta_short, 8u);
}

TEST(HotPathAllocs, SteadyStateSlotLoopNonFading) {
  expect_zero_alloc_slots(core::Propagation::NonFading);
}

TEST(HotPathAllocs, SteadyStateSlotLoopRayleigh) {
  expect_zero_alloc_slots(core::Propagation::Rayleigh);
}

// AHM sets carry no feasibility certificate, so every quiet slot decides
// its live subset on the schedule's gain block.
TEST(HotPathAllocs, SteadyStateSlotLoopAhmRayleigh) {
  expect_zero_alloc_slots(core::Propagation::Rayleigh,
                          serve::PolicyKind::Ahm);
}

// Recompute every slot, inline agent: an upper bound on the allocations
// of run(256) after a 64-slot warm-up, for each policy and propagation.
// The bound is the count measured when the pin was set, so one more
// allocation per recompute fails it. The known sources (none is free yet):
//   * the ScheduleRequest built per submit, taken by value and copied
//     into the agent's task;
//   * the pool's std::function task;
//   * RecomputeOutcome::schedule and its `what` string;
//   * per-call vectors in the AHM policy;
//   * adoption and pruning of the new schedule.
// Lower a pin when a source goes away; never raise one.
std::uint64_t recompute_run_allocs(serve::PolicyKind policy,
                                   core::Propagation propagation) {
  serve::ServeConfig config = steady_config(propagation);
  config.policy = policy;
  config.recompute_period = 1;
  serve::Service service(paper_network(64, 77), config);
  (void)service.run(64);
  const std::uint64_t base = alloc_count();
  (void)service.run(256);
  return alloc_count() - base;
}

TEST(HotPathAllocs, RecomputeSlotsMaxWeightNonFading) {
  EXPECT_LE(recompute_run_allocs(serve::PolicyKind::MaxWeight,
                                 core::Propagation::NonFading),
            2902u);
}

TEST(HotPathAllocs, RecomputeSlotsMaxWeightRayleigh) {
  EXPECT_LE(recompute_run_allocs(serve::PolicyKind::MaxWeight,
                                 core::Propagation::Rayleigh),
            2854u);
}

TEST(HotPathAllocs, RecomputeSlotsAhmNonFading) {
  EXPECT_LE(recompute_run_allocs(serve::PolicyKind::Ahm,
                                 core::Propagation::NonFading),
            3081u);
}

TEST(HotPathAllocs, RecomputeSlotsAhmRayleigh) {
  EXPECT_LE(recompute_run_allocs(serve::PolicyKind::Ahm,
                                 core::Propagation::Rayleigh),
            3116u);
}

// The work of a max-weight recompute: the greedy oracle over
// the network's gains, then pricing the schedule it chose.
TEST(HotPathAllocs, OracleComputeAndPricingAllocateNothing) {
  const model::Network net = paper_network(48, 13);
  const units::Threshold beta(2.5);
  algorithms::WeightedGreedyOracle oracle(net, beta.value());
  util::RngStream rng(88);
  std::vector<std::vector<double>> requests(16);
  for (auto& w : requests) {
    w.resize(net.size());
    for (double& x : w) x = rng.uniform() < 0.3 ? 0.0 : rng.uniform() * 40.0;
  }
  // Warm-up with every link backlogged: the scratch buffers reach n.
  model::LinkSet selected;
  selected.reserve(net.size());
  oracle.compute(std::vector<double>(net.size(), 1.0), selected);
  (void)model::expected_successes_rayleigh(net, selected, beta);

  const std::uint64_t base = alloc_count();
  double priced = 0.0;
  for (const auto& w : requests) {
    oracle.compute(w, selected);
    priced += model::expected_successes_rayleigh(net, selected, beta);
  }
  EXPECT_EQ(alloc_count(), base)
      << "oracle compute or pricing allocated after warm-up";
  EXPECT_GT(priced, 0.0);
}

TEST(HotPathAllocs, SinrOutBufferReusesCapacity) {
  const model::Network net = paper_network(16, 9);
  util::RngStream rng(123);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 8; ++i) active.push_back(i);

  std::vector<double> out;
  model::sinr_rayleigh_all(net, active, rng, out);  // warm: one allocation

  const std::uint64_t base = alloc_count();
  for (int i = 0; i < 100; ++i) {
    model::sinr_rayleigh_all(net, active, rng, out);
  }
  EXPECT_EQ(alloc_count(), base)
      << "out-buffer sinr_rayleigh_all allocated after warm-up";
  EXPECT_EQ(out.size(), active.size());
}

TEST(HotPathAllocs, RayleighSuccessesReusesCapacity) {
  const model::Network net = paper_network(16, 9);
  util::RngStream rng(124);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 12; ++i) active.push_back(i);

  std::vector<char> ok;
  (void)model::rayleigh_successes(net, active, units::Threshold(1.0), rng,
                                  ok);  // warm: one allocation

  const std::uint64_t base = alloc_count();
  std::size_t wins = 0;
  for (int i = 0; i < 100; ++i) {
    wins += model::rayleigh_successes(net, active, units::Threshold(1.0), rng,
                                      ok);
  }
  EXPECT_EQ(alloc_count(), base)
      << "out-buffer rayleigh_successes allocated after warm-up";
  EXPECT_EQ(ok.size(), active.size());
  EXPECT_GT(wins, 0u);
}

// The serve loop refills one gain block per adopted schedule: once it has
// held the largest set, refilling it with any set allocates nothing.
TEST(HotPathAllocs, RestrictionReusesStorage) {
  const model::Network net = paper_network(64, 10);
  model::LinkSet ids;
  for (model::LinkId i = 0; i < 40; ++i) ids.push_back((i * 7) % 64);
  model::Network block = paper_network(2, 1);
  block.assign_restriction(net, ids);  // warm: the largest block

  const std::uint64_t base = alloc_count();
  for (std::size_t m = 1; m <= ids.size(); m += 3) {
    block.assign_restriction(net, std::span(ids.data(), m));
    block.assign_restriction(net, ids);
  }
  EXPECT_EQ(alloc_count(), base) << "assign_restriction allocated";
  EXPECT_EQ(block.size(), ids.size());
}

// count_successes_rayleigh decides without materializing the realization:
// no allocation on any call, the first included.
TEST(HotPathAllocs, CountSuccessesRayleighAllocatesNothing) {
  const model::Network net = paper_network(16, 9);
  util::RngStream rng(125);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 12; ++i) active.push_back(i);

  const std::uint64_t base = alloc_count();
  std::size_t wins = 0;
  for (int i = 0; i < 100; ++i) {
    wins += model::count_successes_rayleigh(net, active,
                                            units::Threshold(1.0), rng);
  }
  EXPECT_EQ(alloc_count(), base) << "count_successes_rayleigh allocated";
  EXPECT_GT(wins, 0u);
}

// The out-buffer overload must stay bit-identical to the returning form:
// same RNG draw order, same arithmetic.
TEST(HotPathAllocs, SinrOutBufferBitIdenticalToReturningForm) {
  const model::Network net = paper_network(12, 21);
  model::LinkSet active;
  for (model::LinkId i = 0; i < 12; i += 2) active.push_back(i);

  util::RngStream rng_a(7);
  util::RngStream rng_b(7);
  const std::vector<double> returned =
      model::sinr_rayleigh_all(net, active, rng_a);
  std::vector<double> reused(99, -1.0);  // dirty, wrong-sized buffer
  model::sinr_rayleigh_all(net, active, rng_b, reused);

  ASSERT_EQ(returned.size(), reused.size());
  for (std::size_t a = 0; a < returned.size(); ++a) {
    EXPECT_EQ(returned[a], reused[a]) << "entry " << a;
  }
}

}  // namespace
}  // namespace raysched
