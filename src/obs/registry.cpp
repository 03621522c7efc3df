// registry.cpp — telemetry registry: the slot table that holds each
// record's registry-only half, snapshots, naming, hazard log.
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

namespace qsv::obs {

namespace {

/// Per-kind registration counter. Kinds are the primitives' static
/// name() strings: a handful per process, so a fixed table keeps
/// registration allocation-free.
struct KindSeq {
  const char* kind = nullptr;
  std::uint64_t next = 0;
};
constexpr std::size_t kKinds = 64;

/// The registry-only half of a record: what snapshots and naming need
/// and the lock itself never reads.
struct Slot {
  LockRec* rec = nullptr;  ///< null while free
  TallyReader read = nullptr;
  const void* instance = nullptr;
  /// Registration order, which snapshots sort by; while the slot is
  /// free, the number of the next free slot.
  std::uint64_t stamp = 0;
  std::uint64_t seq = 0;  ///< per-kind registration number ("kind#seq")
};

/// The registry's slots, numbered densely. Slot i lives in chunk
/// c = bit_width(i / kFirst + 1) - 1, which holds kFirst << c slots:
/// chunks double, so kChunks of them cover every 32-bit slot number.
/// Chunks are never moved or freed, so a record reads its own slot
/// without the registry mutex (LockRec::hot()). A chunk is allocated
/// when its first slot is needed, and its slots are written in runs
/// before any is handed out, so the table's pages are faulted together
/// rather than one at a time between the pages of the instances being
/// built. A chunk's runs double from kFirst slots (20 KiB) up to
/// kMaxRun bytes, so the written but unused tail stays below both
/// kMaxRun and what the chunk already holds. Retired slots are reused,
/// newest first. Every mutator runs under the registry mutex.
class SlotTable {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  Slot& at(std::uint32_t i) const noexcept {
    const int c = static_cast<int>(std::bit_width(i / kFirst + 1)) - 1;
    return chunks_[c][i - kFirst * ((std::uint32_t{1} << c) - 1)];
  }

  /// A slot for a new record: the newest retired one, else a fresh one.
  /// kNone when the table cannot grow.
  std::uint32_t take() noexcept {
    if (free_ != kNone) {
      const std::uint32_t i = free_;
      free_ = static_cast<std::uint32_t>(at(i).stamp);
      return i;
    }
    if (fresh_ == written_ && !write_run()) return kNone;
    return fresh_++;
  }

  void give_back(std::uint32_t i) noexcept {
    Slot& s = at(i);
    s.rec = nullptr;
    s.stamp = free_;
    free_ = i;
  }

  /// Every live slot, in registration order.
  std::vector<const Slot*> live() const {
    std::vector<const Slot*> out;
    for (std::uint32_t i = 0; i < fresh_; ++i) {
      if (at(i).rec != nullptr) out.push_back(&at(i));
    }
    std::sort(out.begin(), out.end(), [](const Slot* a, const Slot* b) {
      return a->stamp < b->stamp;
    });
    return out;
  }

  /// The earliest-registered live slot satisfying `match`, or null.
  template <typename Match>
  const Slot* first(Match match) const {
    const Slot* best = nullptr;
    for (std::uint32_t i = 0; i < fresh_; ++i) {
      const Slot& e = at(i);
      if (e.rec != nullptr && (best == nullptr || e.stamp < best->stamp) &&
          match(e)) {
        best = &e;
      }
    }
    return best;
  }

 private:
  static constexpr std::uint32_t kFirst = 512;  ///< slots in chunk 0
  static constexpr int kChunks = 23;
  static constexpr std::size_t kMaxRun = std::size_t{1} << 20;

  /// Write the next run of fresh slots, allocating its chunk when the
  /// run starts one.
  bool write_run() noexcept {
    const int c = static_cast<int>(std::bit_width(written_ / kFirst + 1)) - 1;
    if (c >= kChunks) return false;
    const std::uint32_t base = kFirst * ((std::uint32_t{1} << c) - 1);
    const std::uint32_t size = kFirst << c;
    if (written_ == base) {
      // malloc, not operator new: a lock's construction makes no
      // operator-new call, even when it is the one that grows the table.
      void* mem = std::malloc(std::size_t{size} * sizeof(Slot));
      if (mem == nullptr) return false;
      chunks_[c] = static_cast<Slot*>(mem);
    }
    const std::uint32_t run = std::max(kFirst, written_ - base);
    const std::uint32_t n = std::min<std::uint32_t>(
        {base + size - written_, run, kMaxRun / sizeof(Slot)});
    std::uninitialized_value_construct_n(&at(written_), n);
    written_ += n;
    return true;
  }

  Slot* chunks_[kChunks] = {};
  std::uint32_t fresh_ = 0;    ///< slots ever handed out: [0, fresh_)
  std::uint32_t written_ = 0;  ///< slots written: [0, written_)
  std::uint32_t free_ = kNone;  ///< newest retired slot
};

/// Registry state behind one mutex: registration/unregistration and
/// snapshots are cold (construction, destruction, introspection); the
/// hot path never comes here — it counts into the primitive itself.
struct State {
  std::mutex mu;
  SlotTable slots;
  std::uint64_t next_stamp = 0;
  std::size_t live = 0;
  KindSeq kinds[kKinds];
  std::uint64_t overflow_seq = 0;  ///< kinds past the table share this
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
  static const char*& kind(LockRec& r) { return r.kind_; }
  static std::uint32_t& slot(LockRec& r) { return r.slot_; }
  static ColdRec* cold_or_alloc(LockRec& r) { return r.cold_or_alloc(); }
};

}  // namespace detail

namespace {

using Access = detail::RegistryAccess;

std::uint64_t next_seq_locked(State& s, const char* kind) {
  for (KindSeq& k : s.kinds) {
    if (k.kind == nullptr) {
      k.kind = kind;
      return k.next++;
    }
    if (k.kind == kind || std::strcmp(k.kind, kind) == 0) return k.next++;
  }
  return s.overflow_seq++;
}

std::string name_of(const Slot& e) {
  const ColdRec* c = e.rec->cold();
  if (c != nullptr && !c->name.empty()) return c->name;
  return std::string(e.rec->kind()) + "#" + std::to_string(e.seq);
}

void fill_stats(const Slot& e, LockStats& out) {
  const LockRec& r = *e.rec;
  out.name = name_of(e);
  out.kind = r.kind();
  out.instance = e.instance;
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
  const std::uint32_t i = s.slots.take();
  if (i == SlotTable::kNone) return;  // the record stays dark
  s.slots.at(i) = Slot{rec, read, instance, s.next_stamp++,
                       next_seq_locked(s, kind)};
  Access::kind(*rec) = kind;
  Access::slot(*rec) = i;
  ++s.live;
}

void registry_unregister(LockRec* rec) noexcept {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  s.slots.give_back(rec->slot());
  Access::kind(*rec) = nullptr;  // retired: get() is null from here on
  --s.live;
}

}  // namespace detail

const void* LockRec::instance() const noexcept {
  return kind_ != nullptr ? state().slots.at(slot_).instance : nullptr;
}

HotCounts LockRec::hot() const noexcept {
  HotCounts h;
  if (kind_ != nullptr) {
    const Slot& e = state().slots.at(slot_);
    e.read(e.instance, h);
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
  const std::vector<const Slot*> live = s.slots.live();
  std::vector<LockStats> out(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) fill_stats(*live[i], out[i]);
  return out;
}

bool stat_by_name(std::string_view name, LockStats& out) {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  const Slot* e =
      s.slots.first([name](const Slot& x) { return name_of(x) == name; });
  if (e == nullptr) return false;
  fill_stats(*e, out);
  return true;
}

void set_name(const void* instance, std::string_view name) {
  State& s = state();
  std::lock_guard<std::mutex> guard(s.mu);
  const Slot* e = s.slots.first(
      [instance](const Slot& x) { return x.instance == instance; });
  if (e == nullptr) return;
  // A named record carries its name in the cold block, so naming
  // allocates it; the name is read and written only under s.mu.
  if (ColdRec* c = Access::cold_or_alloc(*e->rec)) c->name = std::string(name);
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
