// registry.cpp — telemetry registry: the slot table that points at
// each registered record, the kind table that says how to read it,
// snapshots, naming, hazard log.
#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

namespace qsv::obs {

namespace {

/// A table whose element i lives in chunk c = bit_width(i / kFirst + 1)
/// - 1, which holds kFirst << c elements: chunks double, so kChunks of
/// them cover every 32-bit index. Chunks come from malloc, not operator
/// new, so a lock's construction makes no operator-new call even when
/// it is the one that grows a table. They are never moved or freed, so
/// an element written before its index was published is read without
/// the registry mutex.
template <typename T, std::uint32_t kFirst, int kChunks>
class Chunked {
 public:
  T& at(std::uint32_t i) const noexcept {
    const int c = chunk_of(i);
    return chunks_[c][i - base_of(c)];
  }

 protected:
  static int chunk_of(std::uint32_t i) noexcept {
    return static_cast<int>(std::bit_width(i / kFirst + 1)) - 1;
  }
  static std::uint32_t base_of(int c) noexcept {
    return kFirst * ((std::uint32_t{1} << c) - 1);
  }
  static std::uint32_t size_of(int c) noexcept { return kFirst << c; }

  /// Make sure the chunk holding element i exists; false when it cannot.
  bool reserve(std::uint32_t i) noexcept {
    const int c = chunk_of(i);
    if (c >= kChunks) return false;
    if (chunks_[c] == nullptr) {
      void* mem = std::malloc(std::size_t{size_of(c)} * sizeof(T));
      if (mem == nullptr) return false;
      chunks_[c] = static_cast<T*>(mem);
    }
    return true;
  }

 private:
  T* chunks_[kChunks] = {};
};

/// What every instance of one primitive type shares: its kind name, its
/// tally reader, and where its LockRec sits inside it, so a record finds
/// its instance by subtraction.
struct Kind {
  const char* name;
  TallyReader read;
  std::ptrdiff_t offset;  ///< of the LockRec from the instance's start
};

/// The kinds seen so far: a handful per process. A record holds its
/// kind's index (LockRec::kind_), and entries are never changed once
/// written, so kind(), instance() and hot() read them without the
/// registry mutex. Entry 0 is no kind, a dark record's. Every mutator
/// runs under the registry mutex.
class KindTable : public Chunked<Kind, 16, 28> {
 public:
  /// The index of (name, read, offset), added when new; 0 when the
  /// table cannot grow.
  std::uint32_t find_or_add(const char* name, TallyReader read,
                            std::ptrdiff_t offset) noexcept {
    for (std::uint32_t k = 1; k < size_; ++k) {
      const Kind& e = at(k);
      if (e.read == read && e.offset == offset &&
          (e.name == name || std::strcmp(e.name, name) == 0)) {
        return k;
      }
    }
    if (!reserve(size_)) return 0;
    at(size_) = Kind{name, read, offset};
    return size_++;
  }

 private:
  std::uint32_t size_ = 1;  ///< entries written: [1, size_)
};

/// One slot of the registry's table: a registered record, or, while
/// free, the number of the next free slot shifted above a set bit 0. A
/// LockRec is pointer-aligned, so no record's address has bit 0 set.
struct Slot {
  std::uintptr_t word = 0;

  static Slot of(LockRec* rec) noexcept {
    return {reinterpret_cast<std::uintptr_t>(rec)};
  }
  static Slot free(std::uint32_t next) noexcept {
    return {(std::uintptr_t{next} << 1) | 1};
  }
  /// The record, or null while the slot is free (or never used).
  LockRec* rec() const noexcept {
    return (word & 1) == 0 ? reinterpret_cast<LockRec*>(word) : nullptr;
  }
  std::uint32_t next_free() const noexcept {
    return static_cast<std::uint32_t>(word >> 1);
  }
};
static_assert(sizeof(Slot) == sizeof(void*));
static_assert(sizeof(std::uintptr_t) > sizeof(std::uint32_t),
              "a free slot keeps a 32-bit slot number above its tag bit");

/// The registry's slots, numbered densely, one per registered record.
/// A chunk's slots are written in runs before any is handed out, so
/// the table's pages are faulted together rather than one at a time
/// between the pages of the instances being built. A chunk's runs
/// double from 16 KiB (chunk 0's size) up to kMaxRun bytes, so the
/// written but unused tail stays below both kMaxRun and what the chunk
/// already holds. Retired slots are reused, newest first. Every member
/// runs under the registry mutex.
class SlotTable : public Chunked<Slot, (16 << 10) / sizeof(Slot), 21> {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// A slot for a new record: the newest retired one, else a fresh one.
  /// kNone when the table cannot grow.
  std::uint32_t take() noexcept {
    if (free_ != kNone) {
      const std::uint32_t i = free_;
      free_ = at(i).next_free();
      return i;
    }
    if (fresh_ == written_ && !write_run()) return kNone;
    return fresh_++;
  }

  void give_back(std::uint32_t i) noexcept {
    at(i) = Slot::free(free_);
    free_ = i;
  }

  /// Call f(rec) for every registered record, in slot order.
  template <typename F>
  void for_each_live(F f) const {
    for (std::uint32_t i = 0; i < fresh_; ++i) {
      if (LockRec* r = at(i).rec()) f(*r);
    }
  }

 private:
  static constexpr std::size_t kMaxRun = std::size_t{1} << 20;

  /// Write the next run of fresh slots, allocating its chunk when the
  /// run starts one.
  bool write_run() noexcept {
    if (!reserve(written_)) return false;
    const int c = chunk_of(written_);
    const std::uint32_t base = base_of(c);
    const std::uint32_t n = std::min<std::uint32_t>(
        {base + size_of(c) - written_, std::max(size_of(0), written_ - base),
         kMaxRun / sizeof(Slot)});
    std::uninitialized_value_construct_n(&at(written_), n);
    written_ += n;
    return true;
  }

  std::uint32_t fresh_ = 0;    ///< slots ever handed out: [0, fresh_)
  std::uint32_t written_ = 0;  ///< slots written: [0, written_)
  std::uint32_t free_ = kNone;  ///< newest retired slot
};

/// Registry state behind one mutex: registration/unregistration and
/// snapshots are cold (construction, destruction, introspection); the
/// hot path never comes here — it counts into the primitive itself.
struct State {
  std::mutex mu;
  KindTable kinds;
  SlotTable slots;
  std::uint64_t next_stamp = 0;  ///< the next registration's number
  std::size_t live = 0;
  std::deque<std::string> hazards;
};

State& state() {
  static State* s = new State();  // leaked: usable during late teardown
  return *s;
}

std::string list_line(const LockStats& st) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "lock %s kind=%s acq=%llu contended=%llu shared=%llu "
                "handoffs=%llu free=%llu",
                st.name.c_str(), st.kind.c_str(),
                static_cast<unsigned long long>(st.acquisitions),
                static_cast<unsigned long long>(st.contended),
                static_cast<unsigned long long>(st.shared_acquisitions),
                static_cast<unsigned long long>(st.handoffs),
                static_cast<unsigned long long>(st.free_releases));
  return buf;
}

}  // namespace

#if QSV_OBS

namespace detail {

/// The registry's view of a LockRec's in-object fields.
struct RegistryAccess {
  static std::uint64_t& stamp(LockRec& r) { return r.stamp_; }
  static std::uint64_t stamp(const LockRec& r) { return r.stamp_; }
  static std::uint32_t& slot(LockRec& r) { return r.slot_; }
  static std::uint32_t& kind(LockRec& r) { return r.kind_; }
  static ColdRec* cold_or_alloc(LockRec& r) { return r.cold_or_alloc(); }
};

}  // namespace detail

namespace {

using Access = detail::RegistryAccess;

static_assert(alignof(LockRec) > 1, "bit 0 of a slot tags it free");

/// Every live record with its registration number, in registration
/// order. Each record's number is read once, here, never by the sort:
/// ledger sorts 2^17 of them.
std::vector<std::pair<std::uint64_t, const LockRec*>> live_in_order(
    const State& s) {
  std::vector<std::pair<std::uint64_t, const LockRec*>> out;
  out.reserve(s.live);
  s.slots.for_each_live(
      [&out](LockRec& r) { out.emplace_back(Access::stamp(r), &r); });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

/// The earliest-registered live record satisfying `match`, or null.
template <typename Match>
LockRec* first_live(const State& s, Match match) {
  LockRec* best = nullptr;
  s.slots.for_each_live([&best, &match](LockRec& r) {
    if ((best == nullptr || Access::stamp(r) < Access::stamp(*best)) &&
        match(r)) {
      best = &r;
    }
  });
  return best;
}

std::string name_of(const LockRec& r) {
  const ColdRec* c = r.cold();
  if (c != nullptr && !c->name.empty()) return c->name;
  return std::string(r.kind()) + "#" + std::to_string(Access::stamp(r));
}

void fill_stats(const LockRec& r, LockStats& out) {
  out.name = name_of(r);
  out.kind = r.kind();
  out.instance = r.instance();
  out.acquisitions = r.acquisitions();
  out.contended = r.contended();
  out.shared_acquisitions = r.shared_acquisitions();
  out.handoffs = r.handoffs();
  out.free_releases = r.free_releases();
  out.local_passes = r.local_passes();
  out.global_acquires = r.global_acquires();
  out.global_releases = r.global_releases();
  out.wait_ewma_ns = r.wait_ewma_ns();
  out.wait_p50_ns = r.wait_quantile_ns(0.50);
  out.wait_p99_ns = r.wait_quantile_ns(0.99);
  out.max_wait_ns = r.max_wait_ns();
  out.max_hold_ns = r.max_hold_ns();
  const std::uint64_t since = r.held_since_ns();
  if (since != 0) {
    const std::uint64_t now = qsv::platform::now_ns();
    out.held_for_ns = now > since ? now - since : 0;
  } else {
    out.held_for_ns = 0;
  }
  const std::uint64_t cohort_total = out.global_acquires + out.local_passes;
  out.cohort_miss_rate =
      cohort_total != 0 ? static_cast<double>(out.global_acquires) /
                              static_cast<double>(cohort_total)
                        : 0.0;
}

}  // namespace

namespace detail {

void registry_register(LockRec* rec, const char* kind, const void* instance,
                       TallyReader read) noexcept {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  const std::uint32_t k = s.kinds.find_or_add(
      kind, read,
      reinterpret_cast<const char*>(rec) - static_cast<const char*>(instance));
  if (k == 0) return;  // the record stays dark
  const std::uint32_t i = s.slots.take();
  if (i == SlotTable::kNone) return;  // as above
  s.slots.at(i) = Slot::of(rec);
  Access::stamp(*rec) = s.next_stamp++;
  Access::slot(*rec) = i;
  Access::kind(*rec) = k;
  ++s.live;
}

void registry_unregister(LockRec* rec) noexcept {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  s.slots.give_back(rec->slot());
  Access::kind(*rec) = 0;  // retired: get() is null from here on
  --s.live;
}

}  // namespace detail

const char* LockRec::kind() const noexcept {
  return kind_ != 0 ? state().kinds.at(kind_).name : nullptr;
}

const void* LockRec::instance() const noexcept {
  if (kind_ == 0) return nullptr;
  return reinterpret_cast<const char*>(this) - state().kinds.at(kind_).offset;
}

HotCounts LockRec::hot() const noexcept {
  HotCounts h;
  if (kind_ != 0) {
    const Kind& k = state().kinds.at(kind_);
    k.read(reinterpret_cast<const char*>(this) - k.offset, h);
  }
  return h;
}

ColdRec* LockRec::install_cold() noexcept {
  auto* fresh = new (std::nothrow) ColdRec();
  if (fresh == nullptr) return nullptr;
  ColdRec* seen = nullptr;
  // acq_rel: publish the zeroed block to every later reader; acquire on
  // failure: adopt the block another contender installed first.
  if (cold_.compare_exchange_strong(seen, fresh, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;
  return seen;
}

std::vector<LockStats> snapshot() {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  const auto live = live_in_order(s);
  std::vector<LockStats> out(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    fill_stats(*live[i].second, out[i]);
  }
  return out;
}

bool stat_by_name(std::string_view name, LockStats& out) {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  const LockRec* r =
      first_live(s, [name](const LockRec& x) { return name_of(x) == name; });
  if (r == nullptr) return false;
  fill_stats(*r, out);
  return true;
}

void set_name(const void* instance, std::string_view name) {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  LockRec* r = first_live(
      s, [instance](const LockRec& x) { return x.instance() == instance; });
  if (r == nullptr) return;
  // A named record carries its name in the cold block, so naming
  // allocates it; the name is read and written only under s.mu.
  if (ColdRec* c = Access::cold_or_alloc(*r)) c->name = std::string(name);
}

std::size_t size() {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  return s.live;
}

#else  // QSV_OBS == 0: nothing ever registers.

std::vector<LockStats> snapshot() { return {}; }
bool stat_by_name(std::string_view, LockStats&) { return false; }
void set_name(const void*, std::string_view) {}
std::size_t size() { return 0; }

#endif  // QSV_OBS

std::string dump() {
  std::string out;
  for (const LockStats& st : snapshot()) {
    out += list_line(st);
    out += '\n';
  }
  return out;
}

std::string dump_stat(std::string_view name) {
  LockStats st;
  if (!stat_by_name(name, st)) return {};
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "name %s\n"
      "kind %s\n"
      "acquisitions %llu\n"
      "contended %llu\n"
      "shared_acquisitions %llu\n"
      "handoffs %llu\n"
      "free_releases %llu\n"
      "local_passes %llu\n"
      "global_acquires %llu\n"
      "global_releases %llu\n"
      "cohort_miss_rate %.4f\n"
      "wait_ewma_ns %llu\n"
      "wait_p50_ns %llu\n"
      "wait_p99_ns %llu\n"
      "max_wait_ns %llu\n"
      "max_hold_ns %llu\n"
      "held_for_ns %llu\n",
      st.name.c_str(), st.kind.c_str(),
      static_cast<unsigned long long>(st.acquisitions),
      static_cast<unsigned long long>(st.contended),
      static_cast<unsigned long long>(st.shared_acquisitions),
      static_cast<unsigned long long>(st.handoffs),
      static_cast<unsigned long long>(st.free_releases),
      static_cast<unsigned long long>(st.local_passes),
      static_cast<unsigned long long>(st.global_acquires),
      static_cast<unsigned long long>(st.global_releases),
      st.cohort_miss_rate,
      static_cast<unsigned long long>(st.wait_ewma_ns),
      static_cast<unsigned long long>(st.wait_p50_ns),
      static_cast<unsigned long long>(st.wait_p99_ns),
      static_cast<unsigned long long>(st.max_wait_ns),
      static_cast<unsigned long long>(st.max_hold_ns),
      static_cast<unsigned long long>(st.held_for_ns));
  return buf;
}

void record_hazard(std::string_view text) {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  s.hazards.emplace_back(text);
  while (s.hazards.size() > kHazardLogCap) s.hazards.pop_front();
}

std::vector<std::string> hazard_log() {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  return {s.hazards.begin(), s.hazards.end()};
}

void clear_hazard_log() {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  s.hazards.clear();
}

std::vector<std::string> detect_hazards(std::uint64_t long_hold_ns,
                                        std::uint64_t starvation_ns) {
  std::vector<std::string> out;
  char buf[512];
  for (const LockStats& st : snapshot()) {
    if (st.held_for_ns > long_hold_ns) {
      std::snprintf(buf, sizeof(buf),
                    "long-hold: %s held for %llu ns with waiters seen "
                    "(threshold %llu ns)",
                    st.name.c_str(),
                    static_cast<unsigned long long>(st.held_for_ns),
                    static_cast<unsigned long long>(long_hold_ns));
      out.emplace_back(buf);
    }
    if (st.max_wait_ns > starvation_ns) {
      std::snprintf(buf, sizeof(buf),
                    "starvation: %s worst contended wait %llu ns "
                    "(threshold %llu ns)",
                    st.name.c_str(),
                    static_cast<unsigned long long>(st.max_wait_ns),
                    static_cast<unsigned long long>(starvation_ns));
      out.emplace_back(buf);
    }
  }
  return out;
}

}  // namespace qsv::obs
