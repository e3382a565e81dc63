// Runtime pin for the hot-path memory discipline that tools/raysched_mem
// checks lexically: after warm-up, the steady-state serving slot loop, the
// max-weight recompute (oracle compute plus Theorem-1 pricing), the
// kernel's incremental update_link, and the out-buffer sinr_rayleigh_all
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
  // pure serving. The async submit path allocates by design and is
  // measured separately (bench/perf_serve.cpp allocs_per_slot).
  config.recompute_period = 1'000'000;
  config.agent_threads = 1;
  return config;
}

void expect_zero_alloc_slots(core::Propagation propagation) {
  serve::Service service(paper_network(16, 77), steady_config(propagation));

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
  (void)core::batch_expected_successes_active(net, selected, beta);

  const std::uint64_t base = alloc_count();
  double priced = 0.0;
  for (const auto& w : requests) {
    oracle.compute(w, selected);
    priced += core::batch_expected_successes_active(net, selected, beta);
  }
  EXPECT_EQ(alloc_count(), base)
      << "oracle compute or pricing allocated after warm-up";
  EXPECT_GT(priced, 0.0);
}

TEST(HotPathAllocs, KernelUpdateLinkAllocatesNothing) {
  const model::Network net = paper_network(32, 5);
  core::SuccessProbabilityKernel kernel(net, units::Threshold(2.0));
  kernel.set_probabilities(units::uniform_probabilities(
      net.size(), units::Probability(0.5)));
  kernel.update_link(3, units::Probability(0.25));  // warm every lazy path

  const std::uint64_t base = alloc_count();
  for (std::size_t i = 0; i < 200; ++i) {
    kernel.update_link(i % net.size(),
                       units::Probability(0.25 + 0.001 * (i % 100)));
  }
  EXPECT_EQ(alloc_count(), base)
      << "update_link allocated on the incremental path";
  EXPECT_GT(kernel.expected_successes(), 0.0);
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
