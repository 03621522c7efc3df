// layout.cpp — the false-sharing layout-audit registry and generator.
//
// Rule 5 of the discipline: the structs whose layout IS the algorithm
// (a queue node that must own its coherence unit, a publication record
// that must not share a line with its neighbour, a stripe array whose
// whole point is one stripe per line pair) are registered here, and
// `qsvlint --gen-layout` emits a TU of static_asserts over them. The
// build compiles that TU (CMake target qsv_layout_audit), so an
// accidental layout regression — someone drops an alignas, reorders a
// hot field, or a new platform halves kFalseSharingRange — is a build
// failure with the struct named, not a 2x perf mystery in a bench run
// three PRs later.
//
// Private nested types (McsLock::Node, FcExecutor::Record) are reached
// through the qsv::platform::LayoutAuditAccess friend struct that the
// generated TU defines; the owning classes befriend it precisely so
// the audit can see them without widening their real API.
#include "qsvlint/qsvlint.hpp"

#include <filesystem>

namespace qsvlint {

namespace {

/// The one-line layout QsvMutex, QsvTimeoutMutex and McsLock share:
/// one 64-byte, 64-byte-aligned object holding the lock word, its
/// Tally, the LockRec and the RuntimeWait (obs/hook.hpp). Unguarded,
/// so it holds under both QSV_OBS arms.
LayoutEntry one_line(const std::string& header, const std::string& type) {
  return {header,
          type,
          {"std::is_standard_layout_v<" + type + ">",
           "sizeof(" + type + ") == qsv::platform::kCacheLine",
           "alignof(" + type + ") == qsv::platform::kCacheLine"}};
}

}  // namespace

const std::vector<LayoutEntry>& layout_entries() {
  static const std::vector<LayoutEntry> kEntries = {
      {"src/platform/cache.hpp",
       "qsv::platform::Padded<std::atomic<std::uint64_t>>",
       {"alignof(qsv::platform::Padded<std::atomic<std::uint64_t>>) == "
        "qsv::platform::kFalseSharingRange",
        "sizeof(qsv::platform::Padded<std::atomic<std::uint64_t>>) % "
        "qsv::platform::kFalseSharingRange == 0"}},
      {"src/platform/cache.hpp",
       "qsv::platform::Padded<std::atomic<std::int64_t>>",
       {"alignof(qsv::platform::Padded<std::atomic<std::int64_t>>) == "
        "qsv::platform::kFalseSharingRange",
        "sizeof(qsv::platform::Padded<std::atomic<std::int64_t>>) >= "
        "qsv::platform::kFalseSharingRange"}},
      {"src/platform/striped_counter.hpp",
       "qsv::platform::StripedCounter<16>",
       {"sizeof(qsv::platform::StripedCounter<16>) >= "
        "16 * qsv::platform::kFalseSharingRange"}},
      {"src/locks/mcs.hpp", "qsv::locks::McsLock::Node",
       {"sizeof(qsv::platform::Padded<qsv::locks::McsLock::Node>) == "
        "qsv::platform::kFalseSharingRange",
        "alignof(qsv::platform::Padded<qsv::locks::McsLock::Node>) == "
        "qsv::platform::kFalseSharingRange"}},
      {"src/locks/clh.hpp", "qsv::locks::ClhLock::Node",
       {"sizeof(qsv::platform::Padded<qsv::locks::ClhLock::Node>) == "
        "qsv::platform::kFalseSharingRange",
        "alignof(qsv::platform::Padded<qsv::locks::ClhLock::Node>) == "
        "qsv::platform::kFalseSharingRange"}},
      // The queue locks are one 64-byte line each (obs/hook.hpp). A
      // handoff reads none of it, so nothing here pins field offsets;
      // the LockRec bound keeps the registry's fields (list links, the
      // reader, the instance, the kind name) from creeping back into
      // the instance.
      one_line("src/core/qsv_mutex.hpp", "qsv::core::QsvMutex"),
      one_line("src/core/qsv_timeout.hpp", "qsv::core::QsvTimeoutMutex"),
      one_line("src/locks/mcs.hpp", "qsv::locks::McsLock"),
      {"src/obs/hook.hpp",
       "qsv::obs::LockRec",
       {"sizeof(qsv::obs::LockRec) <= 24"},
       "QSV_OBS"},
      // The futex mutex's RuntimeWait shares its state word's line.
      {"src/locks/futex.hpp", "qsv::locks::FutexMutex",
       {"sizeof(qsv::locks::FutexMutex) == "
        "qsv::platform::kFalseSharingRange"}},
      // Telemetry and the wait policy live inside the lock's one line
      // without growing it.
      {"include/qsv/mutex.hpp", "qsv::mutex",
       {"sizeof(qsv::mutex) == qsv::platform::kCacheLine",
        "sizeof(qsv::timed_mutex) == qsv::platform::kCacheLine"}},
      {"src/combining/fc_executor.hpp",
       "qsv::combining::FcExecutor<>::Record",
       {"sizeof(qsv::platform::Padded<qsv::combining::FcExecutor<>::Record>)"
        " == qsv::platform::kFalseSharingRange",
        "alignof(qsv::platform::Padded<qsv::combining::FcExecutor<>::Record>)"
        " == qsv::platform::kFalseSharingRange"}},
  };
  return kEntries;
}

std::string generate_layout_tu(const std::vector<LayoutEntry>& entries) {
  std::string out =
      "// qsv_layout_audit.cpp — GENERATED by `qsvlint --gen-layout`; do "
      "not edit.\n"
      "//\n"
      "// One static_assert per registered hot-struct invariant "
      "(tools/qsvlint/layout.cpp).\n"
      "// Compiling this TU is the check: a layout regression is a build "
      "failure.\n"
      "#include <atomic>\n"
      "#include <cstddef>\n"
      "#include <cstdint>\n"
      "#include <type_traits>\n\n";
  {
    // Deduplicated include list, registry order.
    std::vector<std::string> seen;
    for (const LayoutEntry& e : entries) {
      bool dup = false;
      for (const std::string& s : seen) dup = dup || s == e.header;
      if (dup) continue;
      seen.push_back(e.header);
      // Headers are repo-root-relative; the build includes with src/
      // and include/ on the path like every other TU.
      std::string inc = e.header;
      if (inc.rfind("src/", 0) == 0) inc = inc.substr(4);
      if (inc.rfind("include/", 0) == 0) inc = inc.substr(8);
      out += "#include \"" + inc + "\"\n";
    }
  }
  out +=
      "\nnamespace qsv::platform {\n\n"
      "/// Friend of the registered owners: sees private nested types\n"
      "/// (queue nodes, publication records) without widening their API.\n"
      "struct LayoutAuditAccess {\n";
  for (const LayoutEntry& e : entries) {
    out += "  // " + e.type + " (" + e.header + ")\n";
    if (!e.guard.empty()) out += "#if " + e.guard + "\n";
    for (const std::string& a : e.asserts) {
      out += "  static_assert(" + a + ",\n                \"layout audit: " +
             e.type + "\");\n";
    }
    if (!e.guard.empty()) out += "#endif\n";
  }
  out +=
      "};\n\n"
      "/// Non-empty-TU anchor (some toolchains warn on empty objects).\n"
      "int layout_audit_anchor() { return 0; }\n\n"
      "}  // namespace qsv::platform\n";
  return out;
}

void check_layout_entries(const std::string& root,
                          const std::vector<LayoutEntry>& entries,
                          std::vector<Finding>& out) {
  namespace fs = std::filesystem;
  if (entries.empty()) {
    out.push_back({"tools/qsvlint/layout.cpp", 1, "layout",
                   "the layout-audit registry is empty — the hot structs "
                   "(queue nodes, publication records, stripe arrays) have "
                   "lost their compile-time layout gate"});
    return;
  }
  for (const LayoutEntry& e : entries) {
    if (e.asserts.empty()) {
      out.push_back({e.header, 1, "layout",
                     "registered hot struct '" + e.type +
                         "' has no layout asserts — register at least an "
                         "alignment or size invariant"});
    }
    if (!root.empty() && !fs::exists(fs::path(root) / e.header)) {
      out.push_back({e.header, 1, "layout",
                     "layout-audit registry references '" + e.header +
                         "' which does not exist — update "
                         "tools/qsvlint/layout.cpp when moving hot structs"});
    }
  }
}

}  // namespace qsvlint
