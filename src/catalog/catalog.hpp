// catalog.hpp — the unified, capability-tagged catalogue of every
// synchronization primitive in libqsv.
//
// This subsystem replaces the three copy-pasted per-family registries
// (locks/registry, barriers/registry, rwlocks/registry) with a single
// process-wide list. One contract everywhere:
//
//   * `find(name)` returns nullptr on a miss — never a hollow entry
//     with a null factory. (The old find_lock documented exactly that
//     hollow-entry behavior; the inconsistency is gone.)
//   * `make(capacity)` has one capacity meaning for every family:
//     capacity is the maximum number of threads participating in the
//     *run*. Slot-cycling array locks size their slot arrays with it,
//     barriers use it as the team size, everything else ignores it.
//     capacity >= 1 always. Algorithms whose state is indexed by the
//     dense thread id (Graunke–Thakkar) are sized by
//     platform::kMaxThreads instead — ids are bounded by the process's
//     concurrent-thread high-water mark, which a per-run count cannot
//     express (see builtin.cpp).
//   * `make_with(capacity, policy)` additionally selects the
//     qsv::wait_policy for entries whose caps carry wait-mode bits
//     (kWaitSpin..kWaitAdaptive); entries without the bits ignore the
//     policy. `make(capacity)` is make_with at the process default.
//     This replaces the per-policy entries the catalogue used to carry
//     ("qsv/yield", "qsv/park", "qsv-episode/park").
//   * Registration aborts on a duplicate name — a silent collision
//     would make name lookup ambiguous.
//
// Entries self-register through a static `Registrar` (the benchreg
// scenario pattern): a new algorithm joins the catalogue by adding one
// QSV_CATALOG_REGISTER line in a translation unit linked into the
// library or binary — see builtin.cpp for all stock entries and
// DESIGN.md ("The catalogue") for the recipe.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/any_primitive.hpp"
#include "catalog/capability.hpp"

namespace qsv::catalog {

/// One catalogue row: identity + tagging + factories.
struct Entry {
  std::string name;        ///< stable display/lookup name, e.g. "qsv-rw"
  Family family = Family::kLock;
  std::uint32_t caps = 0;  ///< OR of Capability bits, derived from the type
  std::size_t footprint = 0;  ///< sizeof(concrete type)
  /// Construct at an explicit policy (ignored without wait-mode bits).
  std::function<std::unique_ptr<AnyPrimitive>(std::size_t capacity,
                                              qsv::wait_policy policy)>
      make_with;
  /// Construct at an explicit cohort local-handoff budget. Set exactly
  /// for entries carrying the kCohort capability (the cohort
  /// compositions, hier-qsv among them); null for everything else.
  /// make_with is this factory at the type's default budget.
  std::function<std::unique_ptr<AnyPrimitive>(
      std::size_t capacity, qsv::wait_policy policy, std::size_t budget)>
      make_budgeted;

  /// Construct at the process-default qsv::wait_policy.
  std::unique_ptr<AnyPrimitive> make(std::size_t capacity) const {
    return make_with(capacity, qsv::get_default_wait_policy());
  }

  /// True when every capability in `mask` is present.
  bool has(std::uint32_t mask) const { return (caps & mask) == mask; }
  /// True when make_with honors `p` (the wait-mode bit is set).
  bool has_wait_mode(qsv::wait_policy p) const {
    return has(wait_mode_bit(p));
  }
};

namespace detail {
template <typename T>
Entry tagged_entry(std::string name) {
  Entry e;
  e.name = std::move(name);
  e.caps = caps_of<T>();
  e.family = family_of(e.caps);
  e.footprint = sizeof(T);
  return e;
}

/// One construction rule for every factory: prefer the policy-aware
/// constructor (with capacity if the type takes one), fall back to the
/// policy-blind shapes. Preference order matters — the facade types
/// are both default- and policy-constructible, and the catalogue must
/// plumb the policy through.
template <typename T>
std::unique_ptr<AnyPrimitive> construct(std::size_t capacity,
                                        qsv::wait_policy policy) {
  if constexpr (std::is_constructible_v<T, std::size_t, qsv::wait_policy>) {
    return std::make_unique<Erased<T>>(capacity, policy);
  } else if constexpr (std::is_constructible_v<T, qsv::wait_policy>) {
    (void)capacity;
    return std::make_unique<Erased<T>>(policy);
  } else if constexpr (std::is_default_constructible_v<T>) {
    (void)capacity;
    (void)policy;
    return std::make_unique<Erased<T>>();
  } else {
    (void)policy;
    return std::make_unique<Erased<T>>(capacity);
  }
}

}  // namespace detail

/// Build an Entry for a concrete primitive type. Capabilities and
/// family are derived from the type; the factory default-constructs
/// a default-constructible type and otherwise constructs with
/// `capacity` (array locks size their slot arrays with it, barriers
/// take it as the team size). A type that is BOTH default- and
/// size_t-constructible is ambiguous — its size_t parameter may mean
/// something other than capacity (a backoff slot, a cohort width) —
/// and is rejected at compile time: register it with entry_default()
/// or an explicit factory that states which is meant. This keeps the
/// fed-the-wrong-number bug class (the Graunke-Thakkar heap
/// corruption) a compile error instead of a convention.
template <typename T>
Entry entry(std::string name) {
  constexpr bool by_default = std::is_default_constructible_v<T>;
  constexpr bool by_capacity = std::is_constructible_v<T, std::size_t>;
  static_assert(by_default || by_capacity,
                "catalogue primitives are built from a capacity alone");
  static_assert(!(by_default && by_capacity),
                "ambiguous construction: the size_t parameter may not mean "
                "capacity — use entry_default<T>() or an explicit factory");
  Entry e = detail::tagged_entry<T>(std::move(name));
  e.make_with = [](std::size_t capacity, qsv::wait_policy policy) {
    return detail::construct<T>(capacity, policy);
  };
  return e;
}

/// As entry(), but always default-constructs — the explicit intent
/// marker for types whose size_t constructor parameter is NOT a
/// capacity (e.g. a proportional-backoff slot or a cohort width).
template <typename T>
Entry entry_default(std::string name) {
  static_assert(std::is_default_constructible_v<T>,
                "entry_default needs a default-constructible type");
  Entry e = detail::tagged_entry<T>(std::move(name));
  // Same preference rule, minus the capacity shapes: a policy-aware
  // constructor (tuned non-capacity defaults + explicit policy) still
  // gets the policy plumbed through.
  e.make_with = [](std::size_t, qsv::wait_policy policy) {
    if constexpr (std::is_constructible_v<T, qsv::wait_policy>) {
      return std::make_unique<Erased<T>>(policy);
    } else {
      (void)policy;
      return std::make_unique<Erased<T>>();
    }
  };
  return e;
}

/// As entry(), for cohort combinator types (CohortLock instantiations):
/// their size_t constructor parameter is the local-handoff *budget*,
/// never a capacity, so the capacity-construction rule of entry() must
/// not apply. Both factories are wired: make_budgeted exposes the
/// budget axis (the fig10 sweep), make_with constructs at the type's
/// kDefaultBudget (and make, as always, at the process wait policy).
/// `map` is the cohort map every instance is built with; without one,
/// each instance builds its type's default map when it is constructed.
template <typename T, typename... Map>
Entry entry_cohort(std::string name, Map... map) {
  static_assert(
      std::is_constructible_v<T, std::size_t, qsv::wait_policy, Map...>,
      "cohort entries are built from (budget, wait_policy[, map])");
  static_assert((caps_of<T>() & kCohort) != 0,
                "entry_cohort needs a cohort-structured type");
  Entry e = detail::tagged_entry<T>(std::move(name));
  e.make_budgeted = [map...](std::size_t, qsv::wait_policy policy,
                             std::size_t budget) {
    return std::make_unique<Erased<T>>(budget, policy, map...);
  };
  e.make_with = [mb = e.make_budgeted](std::size_t capacity,
                                       qsv::wait_policy policy) {
    return mb(capacity, policy, T::kDefaultBudget);
  };
  return e;
}

/// Add an entry. Aborts on a duplicate name.
void register_entry(Entry e);

/// OR extra capability bits into an already-registered entry (no-op on
/// a miss). For capabilities that are properties of *other subsystems*
/// rather than the type — kSimulable is tagged this way from the sim's
/// own name lists, so the bit can never drift from what the simulator
/// actually ports.
void add_capability(std::string_view name, std::uint32_t caps);

/// Every registered primitive, in registration order (per family this
/// is the paper-style table order: strawmen, baselines, QSV variants).
const std::vector<Entry>& all();

/// Look up one primitive by exact name. Returns nullptr on miss — the
/// single lookup contract for the whole catalogue.
const Entry* find(std::string_view name);

/// Entries of one family, optionally narrowed to those that have every
/// capability in `caps_mask`.
std::vector<const Entry*> filter(Family family, std::uint32_t caps_mask = 0);

/// Entries (any family) that have every capability in `caps_mask`.
std::vector<const Entry*> filter(std::uint32_t caps_mask);

// Thin per-family views — drop-in successors of the old
// lock_registry()/barrier_registry()/rw_registry() + harness overlays.
inline std::vector<const Entry*> locks() { return filter(Family::kLock); }
inline std::vector<const Entry*> rwlocks() { return filter(Family::kRwLock); }
inline std::vector<const Entry*> barriers() {
  return filter(Family::kBarrier);
}
inline std::vector<const Entry*> eventcounts() {
  return filter(Family::kEventCount);
}
inline std::vector<const Entry*> containers() {
  return filter(Family::kContainer);
}

/// Static-initialization hook for registration translation units.
struct Registrar {
  explicit Registrar(Entry e) { register_entry(std::move(e)); }
};

/// Join the catalogue: one line per algorithm, capabilities derived
/// from the type. Usable from any TU whose object file is linked in.
#define QSV_CATALOG_REGISTER(Type, display_name)                      \
  static const ::qsv::catalog::Registrar QSV_CATALOG_CAT_(qsv_cat_reg_, \
                                                          __LINE__){   \
      ::qsv::catalog::entry<Type>(display_name)}
/// Variant for types whose size_t constructor parameter is not a
/// capacity: always default-constructs (see entry_default()).
#define QSV_CATALOG_REGISTER_DEFAULT(Type, display_name)              \
  static const ::qsv::catalog::Registrar QSV_CATALOG_CAT_(qsv_cat_reg_, \
                                                          __LINE__){   \
      ::qsv::catalog::entry_default<Type>(display_name)}
/// Variant for cohort combinator types, built from (budget, policy)
/// with the budget axis exposed via make_budgeted (see entry_cohort()).
#define QSV_CATALOG_REGISTER_COHORT(Type, display_name)               \
  static const ::qsv::catalog::Registrar QSV_CATALOG_CAT_(qsv_cat_reg_, \
                                                          __LINE__){   \
      ::qsv::catalog::entry_cohort<Type>(display_name)}
#define QSV_CATALOG_CAT_(a, b) QSV_CATALOG_CAT2_(a, b)
#define QSV_CATALOG_CAT2_(a, b) a##b

}  // namespace qsv::catalog
