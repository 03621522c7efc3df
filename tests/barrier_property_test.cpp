// barrier_property_test.cpp — registry-wide barrier properties: no
// thread may leave episode e before every teammate has arrived at e,
// for every algorithm, team size (including awkward non-powers of two),
// and schedule perturbation.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "battery.hpp"
#include "catalog/catalog.hpp"
#include "harness/team.hpp"
#include "platform/cache.hpp"
#include "validate/shaker.hpp"

namespace {

using Param = std::tuple<std::string, std::size_t, std::string>;

qsv::validate::ShakeProfile profile_by_name(const std::string& name) {
  if (name == "off") return qsv::validate::ShakeProfile::off();
  return qsv::validate::ShakeProfile::rough();
}

class BarrierProperty : public ::testing::TestWithParam<Param> {};

TEST_P(BarrierProperty, NoEarlyCrossing) {
  const auto& [name, team, shake] = GetParam();
  const auto* entry = qsv::catalog::find(name);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->family, qsv::catalog::Family::kBarrier);
  // Teams outnumbering the CPUs wait under spin_yield (battery.hpp's
  // rule); std::barrier blocks in the kernel whatever the policy.
  const qsv::test::CrewPolicy policy(team);
  auto barrier = entry->make(team);
  const auto profile = profile_by_name(shake);

  const std::size_t episodes = shake == "off" ? 400 : 120;
  // arrived[r] = last episode thread r has announced. After the barrier
  // every teammate's announcement must be >= our episode — a single
  // early release shows up as a stale value.
  std::vector<qsv::platform::Padded<std::atomic<std::size_t>>> arrived(team);
  std::atomic<std::uint64_t> violations{0};

  qsv::harness::ThreadTeam::run(team, [&](std::size_t rank) {
    qsv::validate::ScheduleShaker shaker(profile, 0xFACADE, rank);
    for (std::size_t e = 1; e <= episodes; ++e) {
      shaker.maybe_perturb();
      arrived[rank]->store(e, std::memory_order_release);
      barrier->arrive_and_wait(rank);
      for (std::size_t t = 0; t < team; ++t) {
        if (arrived[t]->load(std::memory_order_acquire) < e) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
      shaker.maybe_perturb();
      barrier->arrive_and_wait(rank);  // separation before re-announce
    }
  });
  EXPECT_EQ(violations.load(), 0u)
      << name << " team=" << team << " shake=" << shake;
}

std::vector<Param> barrier_params() {
  std::vector<Param> out;
  for (const auto* f : qsv::catalog::barriers()) {
    for (const std::size_t team : {2ul, 3ul, 5ul, 8ul, 13ul}) {
      for (const char* shake : {"off", "rough"}) {
        out.emplace_back(f->name, team, shake);
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllBarriers, BarrierProperty, ::testing::ValuesIn(barrier_params()),
    [](const auto& info) {
      std::string n = std::get<0>(info.param) + "_t" +
                      std::to_string(std::get<1>(info.param)) + "_" +
                      std::get<2>(info.param);
      for (auto& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

}  // namespace
