// catalog_test.cpp — the unified primitive catalogue: lookup contract,
// capability tagging, family views, and uniform make(capacity)
// semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "battery.hpp"
#include "catalog/catalog.hpp"
#include "core/qsv_mutex.hpp"
#include "harness/team.hpp"
#include "workload/critical_section.hpp"

namespace qc = qsv::catalog;

TEST(Catalog, FindReturnsNullptrOnMiss) {
  // Regression for the old split behavior: find_lock() was documented
  // to hand back an entry with a null factory on a miss while the other
  // registries returned nullptr. The unified contract is nullptr, full
  // stop — and never a hollow entry.
  EXPECT_EQ(qc::find(""), nullptr);
  EXPECT_EQ(qc::find("no-such-primitive"), nullptr);
  EXPECT_EQ(qc::find("qsv "), nullptr);   // names match exactly
  EXPECT_EQ(qc::find("QSV"), nullptr);    // case-sensitive
  const qc::Entry* hit = qc::find("qsv");
  ASSERT_NE(hit, nullptr);
  ASSERT_TRUE(hit->make_with);  // a hit always carries a usable factory
  EXPECT_NE(hit->make(2), nullptr);
}

TEST(Catalog, CoversEverythingTheOldCataloguesDid) {
  // The per-policy rows ("qsv/yield", "qsv/park", "qsv-episode/park")
  // collapsed into wait-mode bits on the one entry per primitive; the
  // rows they freed are spent on genuinely new primitives (futex, the
  // two eventcounts), the cohort combinator added four compositions,
  // the combining layer added the fc-mutex plus seven container
  // entries, and the scale oracle added the all-ticket cohort control,
  // so the overall floor is 41 — which CI checks via
  // qsvbench --catalog-names.
  EXPECT_GE(qc::locks().size(), 20u);
  EXPECT_GE(qc::barriers().size(), 7u);
  EXPECT_GE(qc::rwlocks().size(), 5u);
  EXPECT_GE(qc::eventcounts().size(), 2u);
  EXPECT_GE(qc::containers().size(), 7u);
  EXPECT_GE(qc::all().size(), 41u);
  for (const char* name :
       {"tas", "ttas", "ttas+backoff", "ticket", "ticket+prop", "anderson",
        "graunke-thakkar", "clh", "mcs", "std::mutex", "futex", "qsv",
        "qsv-timeout", "hier-qsv", "cohort/qsv+qsv", "cohort/mcs+mcs",
        "cohort/qsv+ticket", "cohort/ticket+mcs", "cohort/ticket+ticket",
        "central",
        "combining-tree", "tournament", "dissemination", "mcs-tree",
        "std::barrier", "qsv-episode", "central-rw/reader-pref",
        "central-rw/writer-pref", "std::shared_mutex", "qsv-rw",
        "qsv-rw/central", "eventcount", "queued-ec", "fc-mutex",
        "fc/queue", "plain/queue", "fc/map", "plain/map", "fc/map/cohort",
        "fc-counter", "striped-acc"}) {
    EXPECT_NE(qc::find(name), nullptr) << name;
  }
}

TEST(Catalog, WaitModeBitsReplaceThePerPolicyEntries) {
  // The collapsed names are gone...
  EXPECT_EQ(qc::find("qsv/yield"), nullptr);
  EXPECT_EQ(qc::find("qsv/park"), nullptr);
  EXPECT_EQ(qc::find("qsv-episode/park"), nullptr);
  // ...their modes are capability bits on the single entry, queryable
  // per policy and honored by make_with.
  const auto* qsv_entry = qc::find("qsv");
  ASSERT_NE(qsv_entry, nullptr);
  EXPECT_TRUE(qsv_entry->has(qc::kWaitModeMask));
  for (const qsv::wait_policy p : qsv::kAllWaitPolicies) {
    EXPECT_TRUE(qsv_entry->has_wait_mode(p)) << qsv::wait_policy_name(p);
    auto lock = qsv_entry->make_with(2, p);
    ASSERT_NE(lock, nullptr);
    lock->lock();
    lock->unlock();
  }
  // Hardwired spinners advertise no mode (the policy is ignored).
  const auto* tas = qc::find("tas");
  ASSERT_NE(tas, nullptr);
  EXPECT_FALSE(tas->has_wait_mode(qsv::wait_policy::park));
  EXPECT_EQ(tas->caps & qc::kWaitModeMask, 0u);
}

namespace {

/// A short integrity run of `kThreads` threads through the row's erased
/// faces: true when the primitive kept its contract (exclusion, aligned
/// episodes, every event seen, every element conserved).
bool integrity_run(qc::AnyPrimitive& p, std::uint32_t caps,
                   std::size_t kThreads) {
  constexpr std::uint64_t kOps = 100;
  if (caps & qc::kContainerMask) {
    // Conservation: every element pushed (or key inserted, or unit
    // added) comes back out exactly once.
    std::atomic<std::uint64_t> in{0}, out{0};
    qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
      for (std::uint64_t i = 1; i <= kOps; ++i) {
        const std::uint64_t v = rank * kOps + i;
        std::uint64_t got = 0;
        if (caps & qc::kQueue) {
          while (!p.try_push(v)) {
            if (p.try_pop(got)) out.fetch_add(got);
          }
        } else if (caps & qc::kMap) {
          p.insert_or_assign(v, v);
          if (p.find(v, got) && p.erase(v)) out.fetch_add(got);
        } else {
          p.add(static_cast<std::int64_t>(v));
        }
        in.fetch_add(v);
      }
    });
    std::uint64_t got = 0;
    while ((caps & qc::kQueue) && p.try_pop(got)) out.fetch_add(got);
    if (caps & qc::kAccumulator) out = static_cast<std::uint64_t>(p.total());
    return in.load() == out.load();
  }
  if (caps & qc::kEpisode) {
    std::atomic<std::uint64_t> arrived{0}, misaligned{0};
    qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t rank) {
      for (std::uint64_t e = 1; e <= kOps / 2; ++e) {
        arrived.fetch_add(1);
        p.arrive_and_wait(rank);
        if (arrived.load() != kThreads * e) misaligned.fetch_add(1);
        p.arrive_and_wait(rank);
      }
    });
    return misaligned.load() == 0;
  }
  if (caps & qc::kEventCount) {
    // Everyone advances, then awaits everyone's events: the last
    // advance must wake every waiter.
    std::atomic<std::uint64_t> short_reads{0};
    qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
      for (std::uint64_t i = 0; i < kOps; ++i) p.advance();
      const auto all = static_cast<std::uint32_t>(kThreads * kOps);
      if (p.await(all) < all) short_reads.fetch_add(1);
    });
    return short_reads.load() == 0 && p.read() == kThreads * kOps;
  }
  // Lock and rwlock rows: GuardedCounter under the exclusive face,
  // interleaved with shared entries where the row has them.
  qsv::workload::GuardedCounter counter;
  qsv::harness::ThreadTeam::run(kThreads, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      p.lock();
      counter.bump();
      p.unlock();
      if (caps & qc::kShared) {
        p.lock_shared();
        p.unlock_shared();
      }
    }
  });
  return counter.consistent() && counter.value() == kThreads * kOps;
}

}  // namespace

TEST(Catalog, EveryWaitConfigurableRowKeepsItsContractUnderEveryPolicy) {
  // Every row carrying the wait-mode bits is built through its
  // catalogue factory under each policy — the path the policy-taking
  // constructors are reached by — and run on four threads (as many as
  // the CPUs under pure spin).
  std::vector<std::string> rows;
  for (const auto& e : qc::all()) {
    if ((e.caps & qc::kWaitModeMask) == 0) continue;
    rows.push_back(e.name);
    for (const qsv::wait_policy p : qsv::kAllWaitPolicies) {
      ASSERT_TRUE(e.has_wait_mode(p)) << e.name;
      const std::size_t threads =
          p == qsv::wait_policy::spin ? qsv::test::capped_crew(4) : 4;
      auto prim = e.make_with(threads, p);
      ASSERT_NE(prim, nullptr) << e.name;
      EXPECT_TRUE(integrity_run(*prim, e.caps, threads))
          << e.name << " under " << qsv::wait_policy_name(p);
    }
  }
  const std::vector<std::string> expected = {
      "anderson", "clh", "mcs", "qsv", "qsv-timeout", "hier-qsv",
      "cohort/qsv+qsv", "cohort/mcs+mcs", "central", "combining-tree",
      "tournament", "dissemination", "mcs-tree", "qsv-episode", "qsv-rw",
      "qsv-rw/central", "fc-mutex", "fc/queue", "plain/queue", "fc/map",
      "plain/map", "fc/map/cohort", "fc-counter", "eventcount",
      "queued-ec"};
  EXPECT_EQ(rows, expected);
}

TEST(Catalog, CohortWaitModesComeFromBothTiers) {
  // A composition honors a policy only when both tiers take one: a
  // ticket tier spins whatever the policy, so its rows claim no mode.
  for (const char* name :
       {"cohort/qsv+ticket", "cohort/ticket+mcs", "cohort/ticket+ticket"}) {
    const auto* e = qc::find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->caps & qc::kWaitModeMask, 0u) << name;
  }
  for (const char* name :
       {"cohort/qsv+qsv", "cohort/mcs+mcs", "fc/map/cohort"}) {
    const auto* e = qc::find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_TRUE(e->has(qc::kWaitModeMask)) << name;
  }
}

TEST(Catalog, NamesAreUniqueAndFamiliesConsistent) {
  std::set<std::string> seen;
  for (const auto& e : qc::all()) {
    EXPECT_TRUE(seen.insert(e.name).second) << "duplicate: " << e.name;
    EXPECT_EQ(e.family, qc::family_of(e.caps)) << e.name;
    EXPECT_GT(e.footprint, 0u) << e.name;
    ASSERT_TRUE(e.make_with) << e.name;
  }
}

TEST(Catalog, CapabilityTagsMatchTheTypes) {
  // Tags are derived from the concrete types at compile time; spot-check
  // the interesting rows.
  const auto caps = [](const char* name) {
    const auto* e = qc::find(name);
    EXPECT_NE(e, nullptr) << name;
    return e != nullptr ? e->caps : 0u;
  };
  EXPECT_EQ(caps("qsv") & (qc::kExclusive | qc::kTry),
            qc::kExclusive | qc::kTry);
  EXPECT_EQ(caps("qsv-timeout") & qc::kTimed, qc::kTimed);
  EXPECT_EQ(caps("qsv-rw") & (qc::kShared | qc::kTry),
            qc::kShared | qc::kTry);
  EXPECT_EQ(caps("qsv-episode") & qc::kEpisode, qc::kEpisode);
  EXPECT_EQ(caps("central") & qc::kExclusive, 0u);
  // Derivation matches the compile-time helper — modulo kSimulable and
  // kCheckable, which are properties of the simulator and the chk
  // checker (tagged onto rows after registration), not of the type.
  EXPECT_EQ(caps("qsv") & ~(qc::kSimulable | qc::kCheckable),
            qc::caps_of<qsv::core::QsvMutex>());
  EXPECT_TRUE(qc::find("qsv")->has(qc::kSimulable));
  EXPECT_TRUE(qc::find("qsv")->has(qc::kCheckable));
}

TEST(Catalog, FilterSelectsByCapabilityAcrossFamilies) {
  // Timed entries exist and every one of them is also try-lockable.
  const auto timed = qc::filter(qc::kTimed);
  ASSERT_FALSE(timed.empty());
  for (const auto* e : timed) EXPECT_TRUE(e->has(qc::kTry)) << e->name;
  // Family + capability narrowing: try-lockable rwlocks.
  const auto try_rw = qc::filter(qc::Family::kRwLock, qc::kTry);
  ASSERT_FALSE(try_rw.empty());
  for (const auto* e : try_rw) {
    EXPECT_EQ(e->family, qc::Family::kRwLock);
    EXPECT_TRUE(e->has(qc::kTry | qc::kShared)) << e->name;
  }
  // An impossible mask selects nothing rather than failing.
  EXPECT_TRUE(qc::filter(qc::kEpisode | qc::kTimed).empty());
}

TEST(Catalog, FamilyViewsPartitionTheCatalogue) {
  EXPECT_EQ(qc::locks().size() + qc::barriers().size() +
                qc::rwlocks().size() + qc::eventcounts().size() +
                qc::containers().size(),
            qc::all().size());
}

TEST(Catalog, CombiningLayerIsTaggedAndPartitioned) {
  // The delegation executor keeps its lock face (it IS a mutex, plus
  // run()), so it stays in the lock family; the structures built on it
  // land in the container family. Both carry kCombining.
  const auto* fc = qc::find("fc-mutex");
  ASSERT_NE(fc, nullptr);
  EXPECT_EQ(fc->family, qc::Family::kLock);
  EXPECT_TRUE(fc->has(qc::kCombining));
  EXPECT_TRUE(fc->has(qc::kExclusive | qc::kTry));
  for (const char* name : {"fc/queue", "fc/map", "fc-counter", "striped-acc"}) {
    const auto* e = qc::find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->family, qc::Family::kContainer) << name;
    EXPECT_TRUE(e->has(qc::kCombining)) << name;
  }
  // Face bits say what each container stores.
  EXPECT_TRUE(qc::find("fc/queue")->has(qc::kQueue));
  EXPECT_TRUE(qc::find("fc/map")->has(qc::kMap));
  EXPECT_TRUE(qc::find("fc/map/cohort")->has(qc::kMap));
  EXPECT_TRUE(qc::find("striped-acc")->has(qc::kAccumulator));
  EXPECT_TRUE(qc::find("fc-counter")->has(qc::kAccumulator));
}

TEST(Catalog, ErasedHandlesReportCapabilitiesAndFootprint) {
  const auto* e = qc::find("qsv-rw");
  ASSERT_NE(e, nullptr);
  auto p = e->make(4);
  // The handle reports the type-derived bits; the entry may addition-
  // ally carry kSimulable/kCheckable, which live on the catalogue row
  // only.
  EXPECT_EQ(p->capabilities(),
            e->caps & ~(qc::kSimulable | qc::kCheckable));
  EXPECT_EQ(p->footprint(), e->footprint);
  // The shared face works through the erased handle.
  EXPECT_TRUE(p->try_lock_shared());
  p->unlock_shared();
  EXPECT_TRUE(p->try_lock());
  p->unlock();
}

TEST(Catalog, UniformCapacitySemantics) {
  // One capacity meaning everywhere: barriers read it as team size,
  // array locks as slots, containers ignore it (their size parameter —
  // ring capacity, shard count — is a structural choice the default
  // factory pins), everyone else ignores it. capacity 1 must be valid
  // for every entry.
  for (const auto& e : qc::all()) {
    auto p = e.make(1);
    ASSERT_NE(p, nullptr) << e.name;
    if (e.has(qc::kEpisode)) {
      EXPECT_EQ(p->team_size(), 1u) << e.name;
      p->arrive_and_wait(0);
    } else if (e.has(qc::kEventCount)) {
      EXPECT_EQ(p->advance(), 1u) << e.name;
      EXPECT_GE(p->await(1), 1u) << e.name;
      EXPECT_EQ(p->read(), 1u) << e.name;
    } else if (e.has(qc::kQueue)) {
      EXPECT_TRUE(p->try_push(7)) << e.name;
      std::uint64_t v = 0;
      EXPECT_TRUE(p->try_pop(v)) << e.name;
      EXPECT_EQ(v, 7u) << e.name;
    } else if (e.has(qc::kMap)) {
      EXPECT_TRUE(p->insert_or_assign(1, 2)) << e.name;
      std::uint64_t v = 0;
      EXPECT_TRUE(p->find(1, v)) << e.name;
      EXPECT_EQ(v, 2u) << e.name;
      EXPECT_TRUE(p->erase(1)) << e.name;
    } else if (e.has(qc::kAccumulator)) {
      p->add(5);
      EXPECT_EQ(p->total(), 5) << e.name;
    } else {
      p->lock();
      p->unlock();
    }
  }
}
