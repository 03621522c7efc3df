// lock_order_test.cpp — the lock-order hazard detector in a normal
// (non-chk) build, fed by the per-thread held chain of the node-based
// production locks: AB/BA across two qsv::mutex instances must warn
// with both registered names; a consistent order must stay silent.
#include <gtest/gtest.h>

#include <string>

#include "qsv/mutex.hpp"
#include "trace/lock_order.hpp"

namespace trace = qsv::trace;

namespace {

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::lock_order_reset();
    trace::lock_order_enable(true);
  }
  void TearDown() override {
    trace::lock_order_enable(false);
    trace::lock_order_reset();
  }
};

}  // namespace

TEST_F(LockOrderTest, InversionWarnsWithBothNames) {
  qsv::mutex a;
  qsv::mutex b;
  trace::lock_order_set_name(&a, "accounts");
  trace::lock_order_set_name(&b, "balances");

  a.lock();
  b.lock();  // edge accounts -> balances
  b.unlock();
  a.unlock();

  b.lock();
  a.lock();  // edge balances -> accounts: closes the cycle
  a.unlock();
  b.unlock();

  EXPECT_EQ(trace::lock_order_stats().warnings, 1u);
  const std::string w = trace::lock_order_last_warning();
  EXPECT_NE(w.find("accounts"), std::string::npos) << w;
  EXPECT_NE(w.find("balances"), std::string::npos) << w;
}

TEST_F(LockOrderTest, InversionWarnsOncePerPair) {
  qsv::mutex a;
  qsv::mutex b;
  for (int i = 0; i < 3; ++i) {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
    b.lock();
    a.lock();
    a.unlock();
    b.unlock();
  }
  EXPECT_EQ(trace::lock_order_stats().warnings, 1u);
}

TEST_F(LockOrderTest, ConsistentOrderStaysSilent) {
  qsv::mutex a;
  qsv::mutex b;
  trace::lock_order_set_name(&a, "outer");
  trace::lock_order_set_name(&b, "inner");
  for (int i = 0; i < 4; ++i) {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  }
  EXPECT_GE(trace::lock_order_stats().edges, 1u);
  EXPECT_EQ(trace::lock_order_stats().warnings, 0u);
  EXPECT_EQ(trace::lock_order_last_warning(), "");
}

TEST_F(LockOrderTest, DisabledRecordsNothing) {
  trace::lock_order_enable(false);
  qsv::mutex a;
  qsv::mutex b;
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  b.lock();
  a.lock();
  a.unlock();
  b.unlock();
  EXPECT_EQ(trace::lock_order_stats().edges, 0u);
  EXPECT_EQ(trace::lock_order_stats().warnings, 0u);
}
