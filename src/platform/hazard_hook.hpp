// hazard_hook.hpp — the platform-side seam for hazard detectors.
//
// The per-thread held chain (HeldList, node_arena.hpp) sees every
// node-based lock acquisition and release, which makes it the natural
// production feed for hazard detectors such as the lock-order-inversion
// graph in src/trace/lock_order.cpp. But platform/ is the bottom layer of the
// tree: it must not include trace/ (qsvlint's layering rule makes that
// a build failure). This header inverts the dependency — platform owns
// two callback slots and a cheap enable flag, and the detector above
// installs itself at enable time.
//
// Cost when disabled (the default): one relaxed load per acquisition
// and one per release, exactly what the direct call into
// trace::lock_order_enabled() used to cost. The acquire load on the
// callback pointer pairs with the release store in install(), so a
// thread that observes enabled() == true also observes the callbacks
// the installer published before flipping the flag.
#pragma once

#include <atomic>

namespace qsv::platform::hazard_hook {

using Callback = void (*)(const void* lock);

namespace detail {
// relaxed: flag is a pure on/off gate; the acquire load on the callback
// pointer below provides the ordering for everything behind it.
inline std::atomic<bool> g_enabled{false};
inline std::atomic<Callback> g_on_acquire{nullptr};
inline std::atomic<Callback> g_on_release{nullptr};
}  // namespace detail

/// Publish the detector's callbacks. Called by the detector (under its
/// own serialization) before it flips enabled(); callbacks stay
/// installed across disable/re-enable cycles.
inline void install(Callback on_acquire, Callback on_release) noexcept {
  detail::g_on_acquire.store(on_acquire, std::memory_order_release);
  detail::g_on_release.store(on_release, std::memory_order_release);
}

/// Gate the per-acquisition feed. The detector mirrors its own enable
/// state here so the held chain's fast path stays a single inlined load.
inline void set_enabled(bool on) noexcept {
  // relaxed: see g_enabled above — ordering comes from the callback
  // pointer's release/acquire pair, not from this flag.
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

inline bool enabled() noexcept {
  // relaxed: stale false skips one observation window; stale true costs
  // one acquire load that finds the callbacks already published.
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Feed one acquisition to the installed detector. Pre: enabled().
inline void on_acquire(const void* lock) {
  Callback cb = detail::g_on_acquire.load(std::memory_order_acquire);
  if (cb != nullptr) cb(lock);
}

/// Feed one release to the installed detector. Pre: enabled().
inline void on_release(const void* lock) {
  Callback cb = detail::g_on_release.load(std::memory_order_acquire);
  if (cb != nullptr) cb(lock);
}

}  // namespace qsv::platform::hazard_hook
