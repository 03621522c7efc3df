// obs_test — the telemetry registry: registration lifecycle, naming,
// the master switch, snapshots, the hazard log, live hazard detection,
// and the in-object record's budget (exact holder-owned tallies, no
// cold block before contention, allocation-free construction). Every
// assertion tolerates -DQSV_OBS=0 (records are null, the registry is
// empty) by skipping the observed-path checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/qsv_mutex.hpp"
#include "core/qsv_rwlock.hpp"
#include "hier/cohort_lock.hpp"
#include "hier/cohort_map.hpp"
#include "obs/hook.hpp"
#include "obs/registry.hpp"
#include "platform/wait.hpp"
#include "qsv/cohort_mutex.hpp"
#include "qsv/mutex.hpp"
#include "qsv/shared_mutex.hpp"

// A counting global allocator for this binary: while g_count_news is
// set, every operator new (plain, nothrow and aligned) is tallied.
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
// The nothrow forms too (the cold block is allocated with one), so that
// every allocation in this binary pairs with the free() below — a
// sanitizer's own nothrow operator new would not.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, static_cast<std::size_t>(a));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, static_cast<std::size_t>(a));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace qc = qsv::core;
namespace qo = qsv::obs;

bool dump_mentions(const std::string& needle) {
  return qo::dump().find(needle) != std::string::npos;
}

TEST(ObsRegistry, RegistersOnConstructionUnregistersOnDestruction) {
  const std::size_t before = qo::size();
  {
    qc::QsvMutex m(qsv::wait_policy::spin);
    if (m.telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
    EXPECT_EQ(qo::size(), before + 1);
    bool found = false;
    for (const qo::LockStats& st : qo::snapshot()) {
      if (st.instance == static_cast<const void*>(&m)) {
        found = true;
        EXPECT_EQ(st.kind, "qsv");
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(qo::size(), before);
  // Each catalogue row registers under its own name: the no-backoff
  // TTAS row is "ttas", not its backoff sibling's "ttas+backoff".
  for (const char* row : {"ttas", "ttas+backoff"}) {
    const auto* entry = qsv::catalog::find(row);
    ASSERT_NE(entry, nullptr) << row;
    const auto lock = entry->make(2);
    ASSERT_NE(lock->telemetry(), nullptr) << row;
    EXPECT_STREQ(lock->telemetry()->kind(), row);
  }
}

TEST(ObsRegistry, DestructionNeverRacesASnapshot) {
  // Snapshots read each record's tallies back out of the live instance
  // (a cohort lock walks its table of cohort slabs, which it builds on
  // first use), so an instance must leave the registry before any
  // member it reads dies, and a snapshot must never read a slab before
  // it is installed. One thread builds, uses and destroys locks while
  // another snapshots without pause; a teardown that unregisters too
  // late, or an install that publishes too early, shows up as a
  // use-after-free under ASan and a race under TSan.
  std::atomic<bool> done{false};
  std::thread reader([&done] {
    while (!done.load(std::memory_order_acquire)) {
      (void)qo::snapshot();
      (void)qo::detect_hazards(~0ULL, ~0ULL);
    }
  });
  for (int i = 0; i < 300; ++i) {
    {
      qsv::hier::CohortLock<qc::QsvMutex, qc::QsvMutex,
                            qsv::hier::BlockCohortMap>
          hier(16, qsv::wait_policy::spin_yield, qsv::hier::BlockCohortMap(4));
      hier.lock();
      hier.unlock();
    }
    {
      qsv::cohort_mutex cohort;
      cohort.lock();
      cohort.unlock();
    }
    {
      qc::QsvMutex flat(qsv::wait_policy::spin_yield);
      flat.lock();
      flat.unlock();
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
}

TEST(ObsRegistry, SetNameRenamesTheRecord) {
  qc::QsvMutex m(qsv::wait_policy::spin);
  if (m.telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qo::set_name(&m, "ledger-for-test");
  qo::LockStats st;
  ASSERT_TRUE(qo::stat_by_name("ledger-for-test", st));
  EXPECT_EQ(st.kind, "qsv");
  EXPECT_TRUE(dump_mentions("ledger-for-test"));
  EXPECT_FALSE(qo::dump_stat("ledger-for-test").empty());
  EXPECT_TRUE(qo::dump_stat("no-such-lock-name").empty());
  qo::LockStats missing;
  EXPECT_FALSE(qo::stat_by_name("no-such-lock-name", missing));
}

TEST(ObsRegistry, DisabledConstructionCarriesNoRecord) {
  const std::size_t before = qo::size();
  qo::set_enabled(false);
  qc::QsvMutex dark(qsv::wait_policy::spin);
  qo::set_enabled(true);
  EXPECT_EQ(dark.telemetry(), nullptr);
  EXPECT_EQ(qo::size(), before);
  // The switch gates only registration: a lock constructed after
  // re-enabling is observed again.
  qc::QsvMutex lit(qsv::wait_policy::spin);
#if QSV_OBS
  EXPECT_NE(lit.telemetry(), nullptr);
#else
  EXPECT_EQ(lit.telemetry(), nullptr);
#endif
  // Unobserved locks still work.
  dark.lock();
  dark.unlock();
}

TEST(ObsRegistry, SharedAcquisitionsCountOnTheReaderFace) {
  qc::QsvRwLock<> rw(qsv::wait_policy::spin);
  if (rw.telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
  const qo::LockRec* rec = rw.telemetry();
  const std::uint64_t shared0 = rec->shared_acquisitions();
  const std::uint64_t excl0 = rec->acquisitions();
  for (int i = 0; i < 5; ++i) {
    rw.lock_shared();
    rw.unlock_shared();
  }
  rw.lock();
  rw.unlock();
  EXPECT_EQ(rec->shared_acquisitions(), shared0 + 5);
  EXPECT_EQ(rec->acquisitions(), excl0 + 1);
}

TEST(ObsRecord, ExactCountsUnderContention) {
  // spin_yield so a small host still makes progress under contention.
  // The lock is constructed last, so it is the registry's tail: every
  // lock the churn thread constructs and destroys rewrites its next_,
  // on the lock word's 64-byte line, while the crew counts there.
  qsv::mutex m(qsv::wait_policy::spin_yield);
  const qo::LockRec* rec = m.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  ASSERT_EQ(qo::snapshot().back().instance, static_cast<const void*>(&m));
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100'000;
  std::uint64_t guarded = 0;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> team;
  team.emplace_back([&] {
    do {
      qsv::mutex neighbour;
    } while (running.load(std::memory_order_acquire) != 0);
  });
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        m.lock();
        ++guarded;
        m.unlock();
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  for (std::thread& t : team) t.join();
  const std::uint64_t total = kThreads * kPerThread;
  ASSERT_EQ(guarded, total);
  // Holder-owned load/store tallies lose nothing: every acquisition is
  // counted once (uncontended on the lock line, contended in the cold
  // block), every release is a handoff or a free release, and every
  // contended acquisition was granted by one handoff.
  EXPECT_EQ(rec->acquisitions(), total);
  EXPECT_EQ(rec->handoffs() + rec->free_releases(), total);
  EXPECT_EQ(rec->contended(), rec->handoffs());
  std::size_t listed = 0;
  for (const qo::LockStats& st : qo::snapshot()) {
    if (st.instance == static_cast<const void*>(&m)) ++listed;
  }
  EXPECT_EQ(listed, 1u);
}

TEST(ObsRecord, NeighbourChurnLeavesALiveLockUntouched) {
  // The registry keeps its own fields (registration order, the tally
  // reader, the instance, the sequence) in its slot table, not in the
  // instance, so building and destroying the records beside a live
  // lock writes none of its bytes. m is the newest record: every
  // neighbour registers right after it.
  qsv::mutex m(qsv::wait_policy::spin);
  if (m.telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
  ASSERT_EQ(qo::snapshot().back().instance, static_cast<const void*>(&m));
  constexpr std::size_t kLine = 64;
  static_assert(sizeof(qsv::mutex) >= kLine);
  unsigned char before[kLine];
  std::memcpy(before, &m, kLine);
  for (int i = 0; i < 1000; ++i) {
    qsv::mutex neighbour;
    ASSERT_EQ(std::memcmp(&m, before, kLine), 0) << "neighbour " << i;
  }
}

TEST(ObsRegistry, ReusedSlotKeepsRegistrationOrderAndNames) {
  // A retired record's slot goes to the next registration. Snapshots
  // still list records in registration order, and names and lookups
  // follow the record, not the slot.
  std::optional<qsv::mutex> a, b, c, d;
  a.emplace();
  if (a->telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
  b.emplace();
  c.emplace();
  const std::uint32_t b_slot = b->telemetry()->slot();
  b.reset();
  d.emplace();
  ASSERT_EQ(d->telemetry()->slot(), b_slot);

  std::vector<qo::LockStats> seen;
  for (const qo::LockStats& st : qo::snapshot()) {
    if (st.instance == &*a || st.instance == &*c || st.instance == &*d) {
      seen.push_back(st);
    }
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].instance, static_cast<const void*>(&*a));
  EXPECT_EQ(seen[1].instance, static_cast<const void*>(&*c));
  EXPECT_EQ(seen[2].instance, static_cast<const void*>(&*d));
  for (const qo::LockStats& st : seen) {
    EXPECT_EQ(st.name.rfind("qsv#", 0), 0u) << st.name;
  }
  EXPECT_NE(seen[0].name, seen[1].name);
  EXPECT_NE(seen[0].name, seen[2].name);
  EXPECT_NE(seen[1].name, seen[2].name);

  qo::set_name(&*d, "reused-slot-for-test");
  qo::LockStats st;
  ASSERT_TRUE(qo::stat_by_name("reused-slot-for-test", st));
  EXPECT_EQ(st.instance, static_cast<const void*>(&*d));
}

TEST(ObsRegistry, EachRecordResolvesItsOwnInstanceAndKind) {
  // A record finds its instance and kind through its type's entry in
  // the registry, and these four types keep their LockRec at different
  // offsets. Generated names number registrations across all kinds.
  qsv::mutex m;
  if (m.telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qsv::timed_mutex tm;
  qsv::shared_mutex sm;
  qsv::cohort_mutex cm;
  struct Want {
    const void* instance;
    std::string kind;
  };
  const Want wants[] = {{&m, qsv::mutex::name()},
                        {&tm, qsv::timed_mutex::name()},
                        {&sm, qsv::shared_mutex::name()},
                        {&cm, qsv::cohort_mutex::name()}};
  const std::vector<qo::LockStats> snap = qo::snapshot();
  std::vector<std::string> names;
  for (const Want& want : wants) {
    std::size_t entries = 0;
    for (const qo::LockStats& st : snap) {
      if (st.instance != want.instance) continue;
      ++entries;
      EXPECT_EQ(st.kind, want.kind);
      EXPECT_EQ(st.name.rfind(want.kind + "#", 0), 0u) << st.name;
      names.push_back(st.name);
    }
    EXPECT_EQ(entries, 1u) << want.kind;
  }
  ASSERT_EQ(names.size(), 4u);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(ObsRecord, NoColdBlockBeforeFirstContendedAcquisition) {
  qc::QsvMutex m(qsv::wait_policy::spin_yield);
  const qo::LockRec* rec = m.telemetry();
  if (rec == nullptr) GTEST_SKIP() << "telemetry compiled out";
  for (int i = 0; i < 1000; ++i) {
    m.lock();
    m.unlock();
  }
  ASSERT_TRUE(m.try_lock());
  m.unlock();
  EXPECT_EQ(rec->cold(), nullptr);
  EXPECT_EQ(rec->acquisitions(), 1001u);
  EXPECT_EQ(rec->free_releases(), 1001u);
  EXPECT_EQ(rec->contended(), 0u);

  // The first contended acquisition allocates it.
  m.lock();
  std::thread waiter([&m] {
    m.lock();
    m.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.unlock();
  waiter.join();
  ASSERT_NE(rec->cold(), nullptr);
  EXPECT_EQ(rec->contended(), 1u);
  EXPECT_EQ(rec->acquisitions(), 1003u);
}

TEST(ObsRecord, ConstructionMakesNoHeapAllocation) {
  constexpr std::size_t kLocks = 4096;
  // Storage first, outside the counted window: only construction and
  // destruction of the locks themselves are measured.
  struct alignas(qsv::mutex) Slot {
    unsigned char bytes[sizeof(qsv::mutex)];
  };
  std::unique_ptr<Slot[]> storage(new Slot[kLocks]);
  qsv::mutex probe;  // first registration of the kind, before counting
  const std::size_t live_before = qo::size();
  g_news.store(0, std::memory_order_relaxed);
  g_count_news.store(true, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kLocks; ++i) new (&storage[i]) qsv::mutex();
  g_count_news.store(false, std::memory_order_relaxed);
  const std::size_t news = g_news.load(std::memory_order_relaxed);
  const std::size_t live = qo::size();
  for (std::size_t i = 0; i < kLocks; ++i) {
    std::launder(reinterpret_cast<qsv::mutex*>(&storage[i]))->~mutex();
  }
  EXPECT_EQ(news, 0u);
#if QSV_OBS
  EXPECT_EQ(live, live_before + kLocks);  // all of them registered
#else
  EXPECT_EQ(live, live_before);
#endif
  EXPECT_EQ(qo::size(), live_before);
}

TEST(ObsHazards, RecordHazardRoundTripsThroughTheLog) {
  qo::clear_hazard_log();
  qo::record_hazard("synthetic inversion A -> B -> A");
  const std::vector<std::string> log = qo::hazard_log();
#if QSV_OBS
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].find("synthetic inversion"), std::string::npos);
#endif
  qo::clear_hazard_log();
  EXPECT_TRUE(qo::hazard_log().empty());
}

TEST(ObsHazards, LogIsBoundedAtTheCap) {
  qo::clear_hazard_log();
  for (std::size_t i = 0; i < qo::kHazardLogCap + 10; ++i) {
    qo::record_hazard("flood entry " + std::to_string(i));
  }
  const std::vector<std::string> log = qo::hazard_log();
#if QSV_OBS
  ASSERT_EQ(log.size(), qo::kHazardLogCap);
  // Oldest entries were dropped; the newest survives at the back.
  EXPECT_NE(log.back().find(std::to_string(qo::kHazardLogCap + 9)),
            std::string::npos);
#endif
  qo::clear_hazard_log();
}

TEST(ObsHazards, DetectHazardsFlagsStarvationByWorstObservedWait) {
  qc::QsvMutex m(qsv::wait_policy::spin_yield);
  if (m.telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
  qo::set_name(&m, "starved-for-test");
  // Manufacture one contended acquisition with a multi-millisecond
  // wait, then ask the detector with a 1 ms starvation threshold.
  m.lock();
  std::thread waiter([&m] {
    m.lock();
    m.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.unlock();
  waiter.join();
  ASSERT_GT(m.telemetry()->max_wait_ns(), 1'000'000u);
  bool flagged = false;
  for (const std::string& h :
       qo::detect_hazards(/*long_hold_ns=*/1'000'000'000'000ULL,
                          /*starvation_ns=*/1'000'000)) {
    if (h.find("starved-for-test") != std::string::npos &&
        h.find("starvation") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
  // With thresholds far above anything observed, the record is quiet.
  for (const std::string& h :
       qo::detect_hazards(1'000'000'000'000ULL, 1'000'000'000'000ULL)) {
    EXPECT_EQ(h.find("starved-for-test"), std::string::npos);
  }
}

TEST(ObsHazards, DetectHazardsFlagsALiveLongHold) {
  // A handoff stamps the granted waiter's hold start, so the detector
  // flags a contended holder while it outstays the threshold, and its
  // release clears the stamp.
  qc::QsvMutex m(qsv::wait_policy::spin_yield);
  if (m.telemetry() == nullptr) GTEST_SKIP() << "telemetry compiled out";
  const std::string name = "long-held-for-test";
  qo::set_name(&m, name);
  constexpr std::uint64_t kLongHoldNs = 10'000'000;
  const auto flags_it = [&name] {
    for (const std::string& h : qo::detect_hazards(kLongHoldNs, ~0ULL)) {
      if (h.find("long-hold") != std::string::npos &&
          h.find(name) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  m.lock();
  std::thread holder([&] {
    m.lock();  // queues behind main, so a handoff grants it
    holding.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    m.unlock();  // a free release: nobody queued behind
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  m.unlock();
  while (!holding.load(std::memory_order_acquire)) std::this_thread::yield();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool flagged = flags_it();
  while (!flagged && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    flagged = flags_it();
  }
  qo::LockStats held;
  const bool found = qo::stat_by_name(name, held);
  release.store(true, std::memory_order_release);
  holder.join();
  EXPECT_TRUE(flagged);
  ASSERT_TRUE(found);
  EXPECT_GT(held.held_for_ns, kLongHoldNs);

  qo::LockStats freed;
  ASSERT_TRUE(qo::stat_by_name(name, freed));
  EXPECT_EQ(freed.held_for_ns, 0u);
  EXPECT_FALSE(flags_it());
}

}  // namespace
