#include "catalog/catalog.hpp"

#include <cstdio>
#include <cstdlib>

namespace qsv::catalog {

namespace detail {
// Defined in builtin.cpp. Referencing it here pins the builtin
// registration object file into every static-library link — a TU whose
// only contents are static Registrars would otherwise be dropped by
// the linker and the stock entries would silently vanish.
void builtin_anchor();
}  // namespace detail

namespace {

std::vector<Entry>& storage() {
  static std::vector<Entry> entries;
  return entries;
}

}  // namespace

void register_entry(Entry e) {
  auto& entries = storage();
  for (const auto& existing : entries) {
    if (existing.name == e.name) {
      std::fprintf(stderr, "qsv::catalog: duplicate registration '%s'\n",
                   e.name.c_str());
      std::abort();
    }
  }
  if (!e.make_with) {
    std::fprintf(stderr, "qsv::catalog: entry '%s' has no factory\n",
                 e.name.c_str());
    std::abort();
  }
  entries.push_back(std::move(e));
}

void add_capability(std::string_view name, std::uint32_t caps) {
  for (auto& e : storage()) {
    if (e.name == name) {
      e.caps |= caps;
      return;
    }
  }
}

const std::vector<Entry>& all() {
  detail::builtin_anchor();
  return storage();
}

const Entry* find(std::string_view name) {
  for (const auto& e : all()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<const Entry*> filter(Family family, std::uint32_t caps_mask) {
  std::vector<const Entry*> out;
  for (const auto& e : all()) {
    if (e.family == family && e.has(caps_mask)) out.push_back(&e);
  }
  return out;
}

std::vector<const Entry*> filter(std::uint32_t caps_mask) {
  std::vector<const Entry*> out;
  for (const auto& e : all()) {
    if (e.has(caps_mask)) out.push_back(&e);
  }
  return out;
}

}  // namespace qsv::catalog
