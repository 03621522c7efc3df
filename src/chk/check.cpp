// check.cpp — instrumented wrappers and exploration drivers for qsv::chk.
#include "chk/check.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <utility>

#include "platform/chk_hook.hpp"
#include "platform/hazard_hook.hpp"
#include "trace/lock_order.hpp"

namespace qsv::chk {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

[[noreturn]] void drv_fatal(const char* what) {
  std::fprintf(stderr, "qsv::chk driver: %s\n", what);
  std::abort();
}

bool contains(const std::vector<std::size_t>& v, std::size_t x) {
  for (std::size_t e : v) {
    if (e == x) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------- wrappers

CheckedLock::CheckedLock(Ctx& ctx,
                         std::unique_ptr<catalog::AnyPrimitive> impl,
                         std::string name)
    : ctx_(ctx), impl_(std::move(impl)), name_(std::move(name)),
      owner_(kNone) {
  trace::lock_order_set_name(this, name_);
}

void CheckedLock::lock() {
  Scheduler& s = ctx_.sched();
  // Pre-operation scheduling point: nothing has changed yet, so it must
  // not count as progress (it would wake every spin-parked thread and
  // blow up the DFS for nothing).
  s.yield_quiet();
  s.set_wanted(this, name_);
  impl_->lock();  // every internal spin/wait is a scheduling point
  s.clear_wanted();
  if (owner_ != kNone) {
    ctx_.fail("mutual exclusion",
              "vthread " + std::to_string(ctx_.self()) + " acquired \"" +
                  name_ + "\" while vthread " + std::to_string(owner_) +
                  " holds it");
  }
  owner_ = ctx_.self();
  s.add_holder(this, name_);
  trace::lock_order_on_acquire(this);
  s.yield();
}

void CheckedLock::unlock() {
  Scheduler& s = ctx_.sched();
  if (owner_ != ctx_.self()) {
    ctx_.fail("lock discipline",
              "vthread " + std::to_string(ctx_.self()) + " released \"" +
                  name_ + "\" without holding it");
  }
  owner_ = kNone;
  s.remove_holder(this);
  trace::lock_order_on_release(this);
  impl_->unlock();
  s.yield();
}

bool CheckedLock::try_lock() {
  Scheduler& s = ctx_.sched();
  s.yield_quiet();
  if (!impl_->try_lock()) return false;
  if (owner_ != kNone) {
    ctx_.fail("mutual exclusion",
              "vthread " + std::to_string(ctx_.self()) +
                  " try-acquired \"" + name_ + "\" while vthread " +
                  std::to_string(owner_) + " holds it");
  }
  owner_ = ctx_.self();
  s.add_holder(this, name_);
  trace::lock_order_on_acquire(this);
  s.yield();
  return true;
}

CheckedSharedLock::CheckedSharedLock(
    Ctx& ctx, std::unique_ptr<catalog::AnyPrimitive> impl, std::string name,
    std::size_t nthreads)
    : ctx_(ctx), impl_(std::move(impl)), name_(std::move(name)),
      writer_(kNone), reader_(nthreads, false) {
  trace::lock_order_set_name(this, name_);
}

void CheckedSharedLock::lock() {
  Scheduler& s = ctx_.sched();
  s.yield_quiet();
  s.set_wanted(this, name_);
  impl_->lock();
  s.clear_wanted();
  if (writer_ != kNone) {
    ctx_.fail("rw exclusion",
              "vthread " + std::to_string(ctx_.self()) +
                  " acquired \"" + name_ + "\" as writer while vthread " +
                  std::to_string(writer_) + " holds it as writer");
  } else if (reader_count_ > 0) {
    ctx_.fail("rw exclusion",
              "vthread " + std::to_string(ctx_.self()) +
                  " acquired \"" + name_ + "\" as writer with " +
                  std::to_string(reader_count_) + " reader(s) inside");
  }
  writer_ = ctx_.self();
  s.add_holder(this, name_);
  trace::lock_order_on_acquire(this);
  s.yield();
}

void CheckedSharedLock::unlock() {
  Scheduler& s = ctx_.sched();
  if (writer_ != ctx_.self()) {
    ctx_.fail("lock discipline",
              "vthread " + std::to_string(ctx_.self()) +
                  " write-released \"" + name_ + "\" without holding it");
  }
  writer_ = kNone;
  s.remove_holder(this);
  trace::lock_order_on_release(this);
  impl_->unlock();
  s.yield();
}

void CheckedSharedLock::lock_shared() {
  Scheduler& s = ctx_.sched();
  s.yield_quiet();
  s.set_wanted(this, name_);
  impl_->lock_shared();
  s.clear_wanted();
  if (writer_ != kNone) {
    ctx_.fail("rw exclusion",
              "vthread " + std::to_string(ctx_.self()) +
                  " entered \"" + name_ + "\" as reader while vthread " +
                  std::to_string(writer_) + " holds it as writer");
  }
  reader_[ctx_.self()] = true;
  ++reader_count_;
  s.add_holder(this, name_);
  trace::lock_order_on_acquire(this);
  s.yield();
}

void CheckedSharedLock::unlock_shared() {
  Scheduler& s = ctx_.sched();
  if (!reader_[ctx_.self()]) {
    ctx_.fail("lock discipline",
              "vthread " + std::to_string(ctx_.self()) +
                  " read-released \"" + name_ + "\" without holding it");
  }
  reader_[ctx_.self()] = false;
  --reader_count_;
  s.remove_holder(this);
  trace::lock_order_on_release(this);
  impl_->unlock_shared();
  s.yield();
}

CheckedSemaphore::CheckedSemaphore(Ctx& ctx, std::int64_t permits,
                                   std::string name)
    : ctx_(ctx), sem_(permits, qsv::wait_policy::spin),
      name_(std::move(name)), permits_(permits) {}

void CheckedSemaphore::acquire() {
  Scheduler& s = ctx_.sched();
  s.yield_quiet();
  s.set_wanted(this, name_);
  sem_.acquire();
  s.clear_wanted();
  ++holders_;
  if (holders_ > permits_) {
    ctx_.fail("semaphore bound",
              "\"" + name_ + "\" admitted " + std::to_string(holders_) +
                  " holders with only " + std::to_string(permits_) +
                  " permit(s)");
  }
  s.add_holder(this, name_);
  s.yield();
}

void CheckedSemaphore::release() {
  Scheduler& s = ctx_.sched();
  if (holders_ <= 0) {
    ctx_.fail("lock discipline",
              "\"" + name_ + "\" released without a held permit");
  }
  --holders_;
  s.remove_holder(this);
  sem_.release();
  s.yield();
}

// The tightest budgets: one scan per tenure leaves a poster that
// enlists while the combiner is inside a served closure for the next
// election, so three threads already reach the retry-and-combine path;
// eviction_idle 0 unlinks every idle interior record, so posters
// re-enlist constantly.
CheckedExecutor::CheckedExecutor(Ctx& ctx, std::string name,
                                 std::size_t nthreads)
    : ctx_(ctx),
      exec_(qsv::wait_policy::spin,
            combining::FcConfig{.max_passes = 1, .eviction_idle = 0}),
      name_(std::move(name)), inside_(kNone), tally_(nthreads, 0) {}

void CheckedExecutor::run() {
  Scheduler& s = ctx_.sched();
  const std::size_t me = ctx_.self();
  const std::uint64_t before = tally_[me];
  s.yield_quiet();
  // The closure runs on whichever vthread combines it.
  exec_.run([this, me] {
    if (inside_ != kNone) {
      ctx_.fail("delegation exclusion",
                "vthread " + std::to_string(ctx_.self()) + " ran vthread " +
                    std::to_string(me) + "'s closure on \"" + name_ +
                    "\" while vthread " + std::to_string(inside_) +
                    "'s is inside");
    }
    inside_ = me;
    platform::chk_hook::yield();
    ++tally_[me];
    inside_ = kNone;
  });
  if (tally_[me] != before + 1) {
    ctx_.fail("delegation exactly-once",
              "vthread " + std::to_string(me) + "'s run() on \"" + name_ +
                  "\" returned after its closure ran " +
                  std::to_string(tally_[me] - before) + " time(s)");
  }
  s.yield();
}

// --------------------------------------------------------------------- Ctx

CheckedLock& Ctx::add_lock(std::unique_ptr<catalog::AnyPrimitive> impl,
                           std::string name) {
  return locks_.emplace_back(*this, std::move(impl), std::move(name));
}

CheckedSharedLock& Ctx::add_rwlock(std::unique_ptr<catalog::AnyPrimitive> impl,
                                   std::string name) {
  return rwlocks_.emplace_back(*this, std::move(impl), std::move(name),
                               sched_.size());
}

CheckedSemaphore& Ctx::add_semaphore(std::int64_t permits, std::string name) {
  return sems_.emplace_back(*this, permits, std::move(name));
}

CheckedExecutor& Ctx::add_executor(std::string name) {
  return execs_.emplace_back(*this, std::move(name), sched_.size());
}

void Ctx::fail(std::string_view property, std::string detail) {
  if (failed_) return;  // first violation wins
  failed_ = true;
  property_ = std::string(property);
  detail_ = std::move(detail);
}

// ------------------------------------------------------------------ Report

std::string Report::counterexample() const {
  if (ok) return "";
  return "property: " + property + "\ndetail: " + detail +
         "\nschedule: " + schedule_string(schedule) + "\n";
}

std::string Report::schedule_string(const std::vector<std::size_t>& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string(s[i]);
  }
  return out;
}

std::vector<std::size_t> Report::parse_schedule(std::string_view s) {
  std::vector<std::size_t> out;
  std::size_t cur = 0;
  bool have = false;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<std::size_t>(c - '0');
      have = true;
    } else {
      if (have) out.push_back(cur);
      cur = 0;
      have = false;
    }
  }
  if (have) out.push_back(cur);
  return out;
}

// ----------------------------------------------------------------- drivers

namespace {

/// One serialized execution: fresh Ctx, fresh primitive instances (the
/// scenario constructs them), violation extraction. Rebuilds the worker
/// pool if a previous stall poisoned it.
struct ExecResult {
  bool violated = false;
  std::string property;
  std::string detail;
  Scheduler::Outcome out;
};

ExecResult run_one(std::unique_ptr<Scheduler>& sched, const Options& opts,
                   const Scenario& scenario,
                   const Scheduler::Chooser& choose, Report& rep) {
  if (!sched || sched->poisoned()) {
    sched = std::make_unique<Scheduler>(opts.threads);
  }
  sched->set_step_cap(opts.max_steps);
  // Fresh wrapper instances each execution: reset the lock-order graph
  // so reused addresses from a prior execution cannot fabricate edges.
  trace::lock_order_reset();
  ExecResult r;
  Ctx ctx(*sched);
  auto bodies = scenario(ctx);
  r.out = sched->run(std::move(bodies), choose);
  ++rep.executions;
  const auto lo = trace::lock_order_stats();
  rep.lock_order_warnings += lo.warnings;
  if (lo.warnings != 0) {
    rep.lock_order_last = trace::lock_order_last_warning();
  }
  if (ctx.failed()) {
    r.violated = true;
    r.property = ctx.property();
    r.detail = ctx.detail();
  } else if (r.out.stalled) {
    r.violated = true;
    r.property = r.out.stall_kind;
    r.detail = r.out.stall_detail;
  } else if (r.out.step_capped) {
    r.violated = true;
    r.property = "step cap";
    r.detail = "execution exceeded the scheduling-decision cap";
  }
  return r;
}

void record_violation(Report& rep, ExecResult&& r) {
  rep.ok = false;
  rep.property = std::move(r.property);
  rep.detail = std::move(r.detail);
  rep.schedule = std::move(r.out.schedule);
}

/// A decision the DFS may still revisit: the runnable set observed at
/// that depth, the alternative currently taken (index into runnable),
/// and the preemption accounting needed to judge alternatives later.
struct ChoicePoint {
  std::vector<std::size_t> runnable;
  std::size_t k;                 ///< current pick = runnable[k]
  std::size_t prev;              ///< thread that ran before this decision
  unsigned preempt_before;       ///< preemptions spent on the prefix
};

/// Switching away from a still-runnable previous thread is a
/// preemption; resuming it (or switching after it blocked/finished) is
/// free. This is the standard iterative-context-bounding cost model.
unsigned pick_cost(const ChoicePoint& cp, std::size_t k) {
  if (cp.prev == kNone) return 0;
  if (!contains(cp.runnable, cp.prev)) return 0;
  return cp.runnable[k] == cp.prev ? 0u : 1u;
}

bool admissible(const ChoicePoint& cp, std::size_t k, unsigned bound) {
  return cp.preempt_before + pick_cost(cp, k) <= bound;
}

/// Depth-first enumeration of all schedules whose preemption count stays
/// within `bound` (bound = UINT_MAX is plain exhaustive DFS). Returns
/// true when a violation was found (recorded in rep); sets
/// rep.exhausted when the bounded space was fully enumerated within the
/// execution budget.
bool dfs_explore(std::unique_ptr<Scheduler>& sched, const Scenario& scenario,
                 const Options& opts, unsigned bound, Report& rep) {
  std::vector<ChoicePoint> stack;
  rep.exhausted = false;
  while (rep.executions < opts.max_executions) {
    std::size_t depth = 0;
    std::size_t prev = kNone;
    unsigned preempts = 0;
    Scheduler::Chooser choose =
        [&](const std::vector<std::size_t>& runnable) -> std::size_t {
      if (depth < stack.size()) {
        // Replaying the prefix: determinism demands the identical
        // runnable set at the identical depth.
        if (stack[depth].runnable != runnable) {
          drv_fatal("nondeterministic execution: runnable set diverged "
                    "while replaying a DFS prefix");
        }
      } else {
        ChoicePoint cp{runnable, 0, prev, preempts};
        while (!admissible(cp, cp.k, bound)) ++cp.k;  // prev's slot is free
        stack.push_back(std::move(cp));
      }
      ChoicePoint& cp = stack[depth];
      const std::size_t pick = cp.runnable[cp.k];
      preempts += pick_cost(cp, cp.k);
      prev = pick;
      ++depth;
      return pick;
    };
    ExecResult r = run_one(sched, opts, scenario, choose, rep);
    if (r.violated) {
      record_violation(rep, std::move(r));
      return true;
    }
    // Backtrack: advance the deepest decision that still has an
    // admissible untried alternative; everything deeper is discarded.
    bool advanced = false;
    while (!stack.empty()) {
      ChoicePoint& cp = stack.back();
      std::size_t next = cp.k + 1;
      while (next < cp.runnable.size() && !admissible(cp, next, bound)) {
        ++next;
      }
      if (next < cp.runnable.size()) {
        cp.k = next;
        advanced = true;
        break;
      }
      stack.pop_back();
    }
    if (!advanced) {
      rep.exhausted = true;
      return false;
    }
  }
  return false;  // execution budget exhausted, space not fully explored
}

void random_explore(std::unique_ptr<Scheduler>& sched,
                    const Scenario& scenario, const Options& opts,
                    Report& rep) {
  for (std::size_t sample = 0;
       sample < opts.samples && rep.executions < opts.max_executions;
       ++sample) {
    // One generator per execution, seeded from (seed, sample): any
    // single sample is reproducible in isolation.
    std::mt19937_64 rng(opts.seed + sample);
    Scheduler::Chooser choose =
        [&rng](const std::vector<std::size_t>& runnable) -> std::size_t {
      return runnable[rng() % runnable.size()];
    };
    ExecResult r = run_one(sched, opts, scenario, choose, rep);
    if (r.violated) {
      record_violation(rep, std::move(r));
      return;
    }
  }
}

void replay_one(std::unique_ptr<Scheduler>& sched, const Scenario& scenario,
                const Options& opts, Report& rep) {
  std::size_t depth = 0;
  bool diverged = false;
  std::size_t diverged_at = 0;
  Scheduler::Chooser choose =
      [&](const std::vector<std::size_t>& runnable) -> std::size_t {
    if (!diverged && depth < opts.replay_schedule.size()) {
      const std::size_t forced = opts.replay_schedule[depth];
      if (contains(runnable, forced)) {
        ++depth;
        return forced;
      }
    }
    if (!diverged) {
      diverged = true;
      diverged_at = depth;
    }
    ++depth;
    return runnable.front();  // keep going so the pool winds down cleanly
  };
  ExecResult r = run_one(sched, opts, scenario, choose, rep);
  if (diverged) {
    rep.ok = false;
    rep.property = "replay divergence";
    rep.detail = "schedule diverged at decision " +
                 std::to_string(diverged_at) +
                 " (recorded pick not runnable or schedule too short)";
    rep.schedule = std::move(r.out.schedule);
    return;
  }
  if (r.violated) record_violation(rep, std::move(r));
}

}  // namespace

Report check(const Scenario& scenario, const Options& opts) {
  if (opts.threads == 0) drv_fatal("check() needs at least one thread");
  Report rep;
  std::unique_ptr<Scheduler> sched;
  // The lock-order detector runs for every check; its findings ride
  // along in the report even when the primary properties hold. Quiet:
  // the per-execution graph reset would otherwise reprint the same
  // hazard once per execution that reaches it.
  trace::lock_order_enable(true);
  trace::lock_order_quiet(true);
  // One feed: the checked wrappers report every row's acquisitions
  // under their registered names. The production held-chain feed would
  // report a node-based row a second time, under the primitive's
  // (unnamed) address, so it stays off while the check explores.
  platform::hazard_hook::set_enabled(false);
  switch (opts.mode) {
    case Options::Mode::kDfs:
      dfs_explore(sched, scenario, opts,
                  std::numeric_limits<unsigned>::max(), rep);
      break;
    case Options::Mode::kPreemptBound:
      // Iterative bounding: almost every real bug needs only a couple
      // of preemptions, so the cheap low bounds usually finish the job.
      for (unsigned k = 0; k <= opts.preemption_bound; ++k) {
        if (dfs_explore(sched, scenario, opts, k, rep)) break;
        if (rep.executions >= opts.max_executions) {
          rep.exhausted = false;
          break;
        }
      }
      break;
    case Options::Mode::kRandom:
      random_explore(sched, scenario, opts, rep);
      break;
    case Options::Mode::kReplay:
      replay_one(sched, scenario, opts, rep);
      break;
  }
  trace::lock_order_quiet(false);
  trace::lock_order_enable(false);
  trace::lock_order_reset();
  return rep;
}

}  // namespace qsv::chk
