// chk_test.cpp — the qsv::chk protocol checker checking itself.
//
// Four angles:
//   * the catalogue battery (quick budgets) stays green,
//   * exhaustive DFS on a trivial scenario really exhausts, and does so
//     deterministically (same execution count twice),
//   * every seeded mutant is caught with the expected property and its
//     schedule replays to the byte-identical counterexample,
//   * an AB/BA scenario over two checked locks is reported as a
//     deadlock naming both locks, and the lock-order hazard detector
//     flags the inversion along the way.
#include <gtest/gtest.h>

#include <string>

#include "catalog/catalog.hpp"
#include "chk/battery.hpp"
#include "chk/check.hpp"
#include "chk/mutants.hpp"
#include "obs/registry.hpp"
#include "qsv/wait.hpp"

namespace chk = qsv::chk;

namespace {

const qsv::catalog::Entry* row(const std::string& name) {
  for (const auto* e : chk::checkable_rows()) {
    if (e->name == name) return e;
  }
  return nullptr;
}

chk::Report dfs(const chk::Scenario& scenario, std::size_t threads) {
  chk::Options opts;
  opts.mode = chk::Options::Mode::kDfs;
  opts.threads = threads;
  return chk::check(scenario, opts);
}

chk::Report replay(const chk::Scenario& scenario, std::size_t threads,
                   const std::vector<std::size_t>& schedule) {
  chk::Options opts;
  opts.mode = chk::Options::Mode::kReplay;
  opts.threads = threads;
  opts.replay_schedule = schedule;
  return chk::check(scenario, opts);
}

}  // namespace

TEST(ChkCatalogue, CheckableRowsCoverLocksAndRwLocks) {
  const auto rows = chk::checkable_rows();
  EXPECT_GE(rows.size(), 20u);
  EXPECT_NE(row("tas"), nullptr);
  EXPECT_NE(row("qsv"), nullptr);
  EXPECT_NE(row("futex"), nullptr);  // sleeps through RuntimeWait
  EXPECT_NE(row("cohort/qsv+qsv"), nullptr);
  EXPECT_NE(row("qsv-rw"), nullptr);
  // The std adapters wait in the kernel, outside the chk seam.
  EXPECT_EQ(row("std::mutex"), nullptr);
}

TEST(ChkDfs, ExhaustsDeterministically) {
  const auto* e = row("tas");
  ASSERT_NE(e, nullptr);
  const chk::Report a = dfs(chk::lock_scenario(*e, 2, 1), 2);
  EXPECT_TRUE(a.ok) << a.counterexample();
  EXPECT_TRUE(a.exhausted);
  EXPECT_GT(a.executions, 1u);
  // Same scenario, same bounds: the exploration is a pure function.
  const chk::Report b = dfs(chk::lock_scenario(*e, 2, 1), 2);
  EXPECT_EQ(a.executions, b.executions);
}

TEST(ChkBattery, QuickBudgetsStayGreen) {
  chk::BatteryOptions opts;
  opts.quick();
  const chk::BatteryResult result = chk::run_battery(opts);
  EXPECT_TRUE(result.ok);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f.row << " [" << f.scenario << "/" << f.mode
                  << "]:\n"
                  << f.report.counterexample();
  }
  EXPECT_GE(result.rows, 21u);
  EXPECT_EQ(result.checks, 2 * result.rows);
}

TEST(ChkMutants, AllCaughtAndReplayByteIdentical) {
  for (const auto& mc : chk::mutants::mutant_cases()) {
    const chk::Report found = dfs(mc.scenario, mc.threads);
    ASSERT_FALSE(found.ok) << mc.name << " was not caught";
    EXPECT_EQ(found.property, mc.expect_property) << mc.name;
    EXPECT_FALSE(found.schedule.empty()) << mc.name;
    const chk::Report again =
        replay(mc.scenario, mc.threads, found.schedule);
    EXPECT_EQ(again.counterexample(), found.counterexample()) << mc.name;
  }
}

TEST(ChkDeadlock, AbBaReportsWaitsForCycleWithBothNames) {
  // tas feeds the lock-order detector only through the checked
  // wrappers; qsv is node-based, so its held chain could feed it a
  // second time, under the primitive's address, which has no name.
  std::size_t tas_warnings = 0;
  for (const std::string name : {"tas", "qsv"}) {
    SCOPED_TRACE(name);
    const auto* e = row(name);
    ASSERT_NE(e, nullptr);
    const chk::Scenario scenario = [e](chk::Ctx& ctx) {
      auto& a =
          ctx.add_lock(e->make_with(2, qsv::wait_policy::spin), "alpha");
      auto& b = ctx.add_lock(e->make_with(2, qsv::wait_policy::spin), "beta");
      std::vector<std::function<void()>> bodies;
      bodies.push_back([&a, &b] {
        a.lock();
        b.lock();
        b.unlock();
        a.unlock();
      });
      bodies.push_back([&a, &b] {
        b.lock();
        a.lock();
        a.unlock();
        b.unlock();
      });
      return bodies;
    };

    qsv::obs::clear_hazard_log();
    const chk::Report found = dfs(scenario, 2);
    ASSERT_FALSE(found.ok);
    EXPECT_EQ(found.property, "deadlock");
    EXPECT_NE(found.detail.find("alpha"), std::string::npos) << found.detail;
    EXPECT_NE(found.detail.find("beta"), std::string::npos) << found.detail;
    // The executions explored before the deadlock include both complete
    // orders, so the lock-order detector must have flagged the inversion.
    EXPECT_GE(found.lock_order_warnings, 1u);
    EXPECT_NE(found.lock_order_last.find("alpha"), std::string::npos)
        << found.lock_order_last;
    EXPECT_NE(found.lock_order_last.find("beta"), std::string::npos)
        << found.lock_order_last;
    // One feed: the same warnings for every row, all naming both locks.
    if (name == "tas") {
      tas_warnings = found.lock_order_warnings;
    } else {
      EXPECT_EQ(found.lock_order_warnings, tas_warnings);
    }
    EXPECT_EQ(found.lock_order_last.find("\"?\""), std::string::npos)
        << found.lock_order_last;
    for (const std::string& h : qsv::obs::hazard_log()) {
      EXPECT_EQ(h.find("\"?\""), std::string::npos) << h;
    }

    const chk::Report again = replay(scenario, 2, found.schedule);
    EXPECT_EQ(again.counterexample(), found.counterexample());
  }
}
