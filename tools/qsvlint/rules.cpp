// rules.cpp — the concurrency-discipline rule table.
//
// Every rule is a pure function over lexed lines plus a path scope
// predicate; the table is the single source of truth for what the
// gate checks (CI floors its size). Rules work at token level on the
// comment-stripped code channel, so nothing in a comment or string
// literal can fire them, and justification tags are read from the
// comment channel only.
#include "qsvlint/qsvlint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace qsvlint {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Find `tok` in `code` at identifier boundaries, starting at `from`.
std::size_t find_token(std::string_view code, std::string_view tok,
                       std::size_t from = 0) {
  while (true) {
    std::size_t p = code.find(tok, from);
    if (p == std::string_view::npos) return std::string_view::npos;
    bool left_ok = p == 0 || !is_ident(code[p - 1]);
    std::size_t end = p + tok.size();
    bool right_ok = end >= code.size() || !is_ident(code[end]);
    if (left_ok && right_ok) return p;
    from = p + 1;
  }
}

/// Collect the argument text of a call whose opening '(' sits at
/// `open_pos` on line `li` — across lines until the parens balance (or
/// a 16-line cap, returning what was seen).
std::string call_args(const std::vector<LineInfo>& lines, std::size_t li,
                      std::size_t open_pos) {
  std::string out;
  int depth = 0;
  for (std::size_t l = li; l < lines.size() && l < li + 16; ++l) {
    const std::string& code = lines[l].code;
    std::size_t start = l == li ? open_pos : 0;
    for (std::size_t p = start; p < code.size(); ++p) {
      char c = code[p];
      if (c == '(') {
        ++depth;
        if (depth == 1) continue;  // the call's own '(' is not an arg char
      } else if (c == ')') {
        --depth;
        if (depth == 0) return out;
      }
      if (depth > 0) out.push_back(c);
    }
    out.push_back(' ');
  }
  return out;
}

/// Does the line (or the contiguous comment block immediately above it)
/// carry a comment containing `tag`?
bool has_tag_above(const std::vector<LineInfo>& lines, std::size_t li,
                   std::string_view tag) {
  if (lines[li].comment.find(tag) != std::string::npos) return true;
  // Wrapped statements: a CAS's failure order usually lands on a
  // continuation line, but its justification belongs with the statement
  // head. Walk up while the previous code line visibly continues into
  // this one, crediting a tag found anywhere in the statement.
  for (std::size_t guard = 0; li > 0 && guard < 12; ++guard) {
    const std::string& above = lines[li - 1].code;
    std::size_t e = above.find_last_not_of(" \t");
    if (e == std::string::npos) break;
    const char prev_end = above[e];
    std::size_t b = lines[li].code.find_first_not_of(" \t");
    const char own_start =
        b == std::string::npos ? '\0' : lines[li].code[b];
    const bool continues =
        prev_end == '(' || prev_end == ',' || prev_end == '=' ||
        prev_end == '&' || prev_end == '|' || prev_end == '?' ||
        prev_end == ':' || prev_end == '+' || prev_end == '<' ||
        own_start == '?' || own_start == ':' || own_start == ')' ||
        own_start == '.';
    if (!continues) break;
    --li;
    if (lines[li].comment.find(tag) != std::string::npos) return true;
  }
  for (std::size_t l = li; l-- > 0;) {
    if (!lines[l].comment_only) {
      // A trailing comment on the last code line above also counts:
      //   foo(std::memory_order_relaxed);  // on a wrapped call's
      // justification sits with the statement, not the wrapped line.
      return lines[l].comment.find(tag) != std::string::npos;
    }
    if (lines[l].comment.find(tag) != std::string::npos) return true;
  }
  return false;
}

// ------------------------------------------------------------------- seam

bool seam_applies(std::string_view path) {
  return (starts_with(path, "src/") || starts_with(path, "include/")) &&
         !starts_with(path, "src/platform/");
}

void seam_run(const FileContext& ctx, std::vector<Finding>& out) {
  static constexpr std::string_view kRawWaits[] = {
      "this_thread::yield",    "this_thread::sleep_for",
      "this_thread::sleep_until", "sched_yield",
      "_mm_pause",             "__builtin_ia32_pause",
      "nanosleep",             "usleep",
  };
  const auto& lines = *ctx.lines;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    for (std::string_view tok : kRawWaits) {
      if (lines[li].code.find(tok) == std::string::npos) continue;
      out.push_back(
          {ctx.path, li + 1, "seam",
           "raw OS wait '" + std::string(tok) +
               "' outside src/platform/ bypasses the chk_hook seam; "
               "route it through qsv::platform::thread_yield()/"
               "thread_sleep() or the wait layer"});
    }
  }
}

// --------------------------------------------------------- relaxed-justify

bool relaxed_applies(std::string_view path) {
  return starts_with(path, "src/") || starts_with(path, "include/");
}

void relaxed_run(const FileContext& ctx, std::vector<Finding>& out) {
  const auto& lines = *ctx.lines;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    bool relaxed = find_token(code, "memory_order_relaxed") !=
                       std::string_view::npos ||
                   code.find("memory_order::relaxed") != std::string::npos;
    bool consume = find_token(code, "memory_order_consume") !=
                       std::string_view::npos ||
                   code.find("memory_order::consume") != std::string::npos;
    if (!relaxed && !consume) continue;
    if (consume) {
      out.push_back({ctx.path, li + 1, "relaxed-justify",
                     "memory_order_consume is unimplementable as specified "
                     "(every compiler promotes it); use acquire, or relaxed "
                     "with a '// relaxed:' justification"});
      continue;
    }
    if (has_tag_above(lines, li, "relaxed:")) continue;
    out.push_back(
        {ctx.path, li + 1, "relaxed-justify",
         "memory_order_relaxed without a '// relaxed:' justification on "
         "this line or the comment block above — state why unordered "
         "access is correct here"});
  }
}

// ----------------------------------------------------------- implicit-order

bool implicit_applies(std::string_view path) {
  return starts_with(path, "src/core/") ||
         starts_with(path, "src/platform/") ||
         starts_with(path, "src/eventcount/") ||
         starts_with(path, "src/combining/") ||
         starts_with(path, "src/obs/") ||
         starts_with(path, "src/trace/");
}

/// Names of variables declared std::atomic<...> / std::atomic_xxx in
/// this file (declaration and use sit in the same class in this tree).
std::set<std::string> atomic_names(const std::vector<LineInfo>& lines) {
  std::set<std::string> names;
  for (const LineInfo& line : lines) {
    const std::string& code = line.code;
    std::size_t trimmed = code.find_first_not_of(" \t");
    if (trimmed != std::string::npos &&
        starts_with(std::string_view(code).substr(trimmed), "using "))
      continue;
    for (std::size_t p = code.find("std::atomic"); p != std::string::npos;
         p = code.find("std::atomic", p + 1)) {
      std::size_t q = p + std::string_view("std::atomic").size();
      if (q < code.size() && code[q] == '<') {
        int depth = 0;
        while (q < code.size()) {
          if (code[q] == '<') ++depth;
          if (code[q] == '>' && --depth == 0) {
            ++q;
            break;
          }
          ++q;
        }
      } else if (q < code.size() && is_ident(code[q])) {
        // std::atomic_bool, std::atomic_flag, ...
        while (q < code.size() && is_ident(code[q])) ++q;
      }
      while (q < code.size() && (code[q] == ' ' || code[q] == '&')) ++q;
      std::size_t name_end = q;
      while (name_end < code.size() && is_ident(code[name_end])) ++name_end;
      if (name_end > q) names.insert(code.substr(q, name_end - q));
    }
  }
  return names;
}

void implicit_run(const FileContext& ctx, std::vector<Finding>& out) {
  const auto& lines = *ctx.lines;
  std::set<std::string> atomics = atomic_names(lines);

  // A protocol routine that snapshots an atomic member into a local of
  // the same name (`Node* next = n->next.load(...)`) shadows it for the
  // rest of the file as far as a lexer can tell; writes to such names
  // are ambiguous, so they are excluded from the operator heuristic
  // (the member-call checks above still cover them).
  {
    std::set<std::string> shadowed;
    for (const LineInfo& line : lines) {
      const std::string& code = line.code;
      for (const std::string& name : atomics) {
        for (std::size_t p = find_token(code, name);
             p != std::string_view::npos;
             p = find_token(code, name, p + 1)) {
          std::size_t b = p;
          while (b > 0 && code[b - 1] == ' ') --b;
          if (b == 0 || (!is_ident(code[b - 1]) && code[b - 1] != '*' &&
                         code[b - 1] != '&') ||
              code.find("std::atomic") != std::string::npos) {
            continue;
          }
          // An identifier before the name marks a declaration only if
          // it is type-like — expression keywords don't declare.
          if (is_ident(code[b - 1])) {
            std::size_t wb = b;
            while (wb > 0 && is_ident(code[wb - 1])) --wb;
            const std::string word = code.substr(wb, b - wb);
            if (word == "return" || word == "throw" || word == "case" ||
                word == "goto" || word == "delete" || word == "sizeof" ||
                word == "alignof" || word == "co_return" ||
                word == "co_yield" || word == "co_await") {
              continue;
            }
          }
          shadowed.insert(name);
        }
      }
    }
    for (const std::string& s : shadowed) atomics.erase(s);
  }

  struct Method {
    std::string_view name;
    bool any_receiver;  ///< flag regardless of receiver identity
  };
  // load/store/test_and_set/compare_exchange are distinctive enough to
  // flag on any receiver; exchange and the fetch_* family collide with
  // the counter facades' own method names, so those require a receiver
  // this file declared std::atomic.
  static constexpr Method kMethods[] = {
      {"load", true},           {"store", true},
      {"test_and_set", true},   {"compare_exchange_weak", true},
      {"compare_exchange_strong", true},
      {"exchange", false},      {"fetch_add", false},
      {"fetch_sub", false},     {"fetch_or", false},
      {"fetch_and", false},     {"fetch_xor", false},
  };

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    for (const Method& m : kMethods) {
      for (std::size_t p = find_token(code, m.name);
           p != std::string_view::npos;
           p = find_token(code, m.name, p + 1)) {
        std::size_t open = p + m.name.size();
        if (open >= code.size() || code[open] != '(') continue;
        // Member calls only: the token must follow '.' or '->'.
        bool member = (p >= 1 && code[p - 1] == '.') ||
                      (p >= 2 && code[p - 2] == '-' && code[p - 1] == '>');
        if (!member) continue;
        if (!m.any_receiver) {
          std::size_t r_end = p >= 1 && code[p - 1] == '.' ? p - 1 : p - 2;
          std::size_t r_begin = r_end;
          while (r_begin > 0 && is_ident(code[r_begin - 1])) --r_begin;
          if (r_begin == r_end ||
              atomics.count(code.substr(r_begin, r_end - r_begin)) == 0)
            continue;
        }
        std::string args = call_args(lines, li, open);
        // Explicit enough: a literal std::memory_order_* constant or a
        // threaded-through `order` parameter (StripedCounter::sum).
        if (args.find("memory_order") != std::string::npos ||
            find_token(args, "order") != std::string_view::npos)
          continue;
        out.push_back(
            {ctx.path, li + 1, "implicit-order",
             "atomic ." + std::string(m.name) +
                 "() without an explicit memory order in a hot layer — "
                 "implicit seq_cst hides the protocol's real ordering "
                 "requirement; spell it (std::memory_order_seq_cst if "
                 "sequential consistency is the point)"});
      }
    }
    // Operator forms on identifiers this file declared atomic: ++, --,
    // compound assignment, and plain assignment (an implicit seq_cst
    // store). Declaration lines themselves are exempt.
    if (code.find("std::atomic") != std::string::npos) continue;
    for (const std::string& name : atomics) {
      for (std::size_t p = find_token(code, name);
           p != std::string_view::npos;
           p = find_token(code, name, p + 1)) {
        std::size_t after = p + name.size();
        while (after < code.size() && code[after] == ' ') ++after;
        std::string_view rest = std::string_view(code).substr(after);
        std::size_t before = p;
        while (before > 0 && code[before - 1] == ' ') --before;
        // `Type name = ...` / `Type* name = ...` is a declaration of a
        // (shadowing) local, not a write to the atomic member: a write
        // statement starts the expression or follows a member access.
        bool declaration =
            before > 0 && (is_ident(code[before - 1]) ||
                           code[before - 1] == '*' || code[before - 1] == '&');
        if (declaration) continue;
        bool pre_incdec =
            before >= 2 && ((code[before - 1] == '+' && code[before - 2] == '+') ||
                            (code[before - 1] == '-' && code[before - 2] == '-'));
        bool post_incdec = starts_with(rest, "++") || starts_with(rest, "--");
        bool compound = rest.size() >= 2 && rest[1] == '=' &&
                        (rest[0] == '+' || rest[0] == '-' || rest[0] == '|' ||
                         rest[0] == '&' || rest[0] == '^');
        bool plain_assign =
            !rest.empty() && rest[0] == '=' &&
            (rest.size() < 2 || rest[1] != '=') &&
            (before == 0 || (code[before - 1] != '=' && code[before - 1] != '!' &&
                             code[before - 1] != '<' && code[before - 1] != '>'));
        if (!(pre_incdec || post_incdec || compound || plain_assign)) continue;
        out.push_back(
            {ctx.path, li + 1, "implicit-order",
             "implicit-seq_cst operator on atomic '" + name +
                 "' in a hot layer — use fetch_add/fetch_sub/store with an "
                 "explicit memory order"});
      }
    }
  }
}

// --------------------------------------------------------------- layering

struct Band {
  std::string_view layer;
  int rank;
};

int band_rank(std::string_view layer) {
  if (layer == "api-common") return 0;
  if (layer == "platform") return 1;
  if (layer == "primitives") return 2;
  if (layer == "obs") return 3;
  if (layer == "catalog") return 3;
  if (layer == "toolkit") return 4;
  if (layer == "facade") return 4;
  if (layer == "chk") return 5;
  if (layer == "top") return 6;
  return -1;
}

bool layering_applies(std::string_view path) {
  return starts_with(path, "src/") || starts_with(path, "include/") ||
         starts_with(path, "tests/") || starts_with(path, "bench/");
}

void layering_run(const FileContext& ctx, std::vector<Finding>& out) {
  const std::string_view src_layer = layer_of(ctx.path);
  const int src_rank = band_rank(src_layer);
  if (src_rank < 0) return;
  const auto& lines = *ctx.lines;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    std::size_t p = code.find("#include");
    if (p == std::string::npos) continue;
    std::size_t q1 = code.find('"', p);
    if (q1 == std::string::npos) continue;  // <system> include
    std::size_t q2 = code.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    // The lexer blanks string contents; recover the target from raw.
    std::size_t r1 = lines[li].raw.find('"');
    std::size_t r2 =
        r1 == std::string::npos ? std::string::npos
                                : lines[li].raw.find('"', r1 + 1);
    if (r2 == std::string::npos) continue;
    const std::string target = lines[li].raw.substr(r1 + 1, r2 - r1 - 1);
    const std::string_view tgt_layer = layer_of(target);
    const int tgt_rank = band_rank(tgt_layer);
    if (tgt_rank < 0) continue;  // outside the layer model (vendored etc.)

    // The chk checker and its seam are test-only machinery: production
    // layers must reach them only through the platform wait paths.
    const bool tgt_is_chk = tgt_layer == "chk";
    const bool tgt_is_hook = target == "platform/chk_hook.hpp" ||
                             target == "src/platform/chk_hook.hpp";
    if (tgt_is_chk && !(src_layer == "chk" || src_layer == "top")) {
      out.push_back({ctx.path, li + 1, "layering",
                     "production layer '" + std::string(src_layer) +
                         "' includes the test-only checker (\"" + target +
                         "\"); src/chk/ is reachable only from tests and "
                         "its own CLI"});
      continue;
    }
    if (tgt_is_hook && !(src_layer == "platform" || src_layer == "chk" ||
                         src_layer == "top")) {
      out.push_back({ctx.path, li + 1, "layering",
                     "\"platform/chk_hook.hpp\" is the checker seam: only "
                     "src/platform/ wait paths (and the checker itself) may "
                     "consult it, or the seam stops being total"});
      continue;
    }

    // The telemetry layer: "obs/hook.hpp" is the one narrow seam every
    // layer may include (the chk_hook dependency-inversion move); the
    // registry/endpoint machinery behind it stays unreachable from the
    // platform and primitive layers.
    const bool tgt_is_obs_hook =
        target == "obs/hook.hpp" || target == "src/obs/hook.hpp";
    if (tgt_is_obs_hook) continue;  // the seam: includable from any layer
    if (tgt_layer == "obs" &&
        (src_layer == "platform" || src_layer == "primitives")) {
      out.push_back({ctx.path, li + 1, "layering",
                     "layer '" + std::string(src_layer) + "' includes \"" +
                         target +
                         "\" — src/obs/ registry machinery is reachable "
                         "only from the catalogue, facade, toolkit, and "
                         "tests; lower layers go through \"obs/hook.hpp\""});
      continue;
    }

    if (tgt_rank > src_rank) {
      out.push_back(
          {ctx.path, li + 1, "layering",
           "layer '" + std::string(src_layer) + "' includes \"" + target +
               "\" from higher layer '" + std::string(tgt_layer) +
               "'; the include DAG is facade/toolkit -> catalogue -> "
               "primitives -> platform (api-common headers are free)"});
    }
  }
}

// -------------------------------------------------------------- capability

bool capability_applies(std::string_view path) {
  return starts_with(path, "include/qsv/");
}

void capability_run(const FileContext& ctx, std::vector<Finding>& out) {
  const auto& lines = *ctx.lines;

  struct Scope {
    bool is_class = false;
    bool has_cap = false;
    bool saw_lock = false;
    bool saw_unlock = false;
    std::string name;
    std::size_t line = 0;
  };
  std::vector<Scope> stack;

  bool pending = false;       // saw class/struct, waiting for '{' or ';'
  Scope pending_scope;
  std::string pending_text;

  auto finish_class_header = [&] {
    // First identifier after the keyword that is not the capability
    // macro or an attribute is the class name.
    std::size_t p = 0;
    while (p < pending_text.size()) {
      while (p < pending_text.size() && !is_ident(pending_text[p])) ++p;
      std::size_t e = p;
      while (e < pending_text.size() && is_ident(pending_text[e])) ++e;
      std::string tok = pending_text.substr(p, e - p);
      if (tok == "class" || tok == "struct" || tok == "QSV_CAPABILITY" ||
          tok == "alignas" || tok == "final" || tok.empty()) {
        // skip the macro's argument list
        while (e < pending_text.size() && pending_text[e] == ' ') ++e;
        if (e < pending_text.size() && pending_text[e] == '(') {
          int d = 0;
          while (e < pending_text.size()) {
            if (pending_text[e] == '(') ++d;
            if (pending_text[e] == ')' && --d == 0) {
              ++e;
              break;
            }
            ++e;
          }
        }
        p = e;
        continue;
      }
      pending_scope.name = tok;
      break;
    }
  };

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;

    // Class-header detection: 'class'/'struct' as the first token of a
    // line (the convention throughout include/qsv/), buffered until the
    // opening brace or a forward-declaration semicolon.
    std::size_t first = code.find_first_not_of(" \t");
    if (!pending && first != std::string::npos) {
      std::string_view t = std::string_view(code).substr(first);
      if ((starts_with(t, "class") &&
           (t.size() == 5 || !is_ident(t[5]))) ||
          (starts_with(t, "struct") &&
           (t.size() == 6 || !is_ident(t[6])))) {
        pending = true;
        pending_scope = Scope{};
        pending_scope.is_class = true;
        pending_scope.line = li + 1;
        pending_text.clear();
      }
    }

    for (std::size_t p = 0; p < code.size(); ++p) {
      char c = code[p];
      if (pending) {
        if (c == '{') {
          pending_scope.has_cap =
              pending_text.find("QSV_CAPABILITY") != std::string::npos;
          finish_class_header();
          stack.push_back(pending_scope);
          pending = false;
          continue;
        }
        if (c == ';') {
          pending = false;  // forward declaration
          continue;
        }
        pending_text.push_back(c);
        continue;
      }
      if (c == '{') {
        stack.push_back(Scope{});  // anonymous block
      } else if (c == '}') {
        if (!stack.empty()) {
          Scope s = stack.back();
          stack.pop_back();
          if (s.is_class && s.saw_lock && s.saw_unlock && !s.has_cap) {
            out.push_back(
                {ctx.path, s.line, "capability",
                 "facade type '" + s.name +
                     "' exposes lock()/unlock() without a QSV_CAPABILITY "
                     "annotation — Clang thread-safety analysis cannot see "
                     "it (include/qsv/thread_safety.hpp)"});
          }
        }
      }
    }

    // lock()/unlock() declarations inside the innermost class scope.
    // Member *calls* (x.lock(), p->lock(), std::lock(...)) are excluded
    // by the preceding-character check.
    auto mark = [&](std::string_view tok, bool is_lock) {
      for (std::size_t p = find_token(code, tok); p != std::string_view::npos;
           p = find_token(code, tok, p + 1)) {
        std::size_t after = p + tok.size();
        if (after >= code.size() || code[after] != '(') continue;
        std::size_t b = p;
        while (b > 0 && code[b - 1] == ' ') --b;
        if (b > 0 && (code[b - 1] == '.' || code[b - 1] == '>' ||
                      code[b - 1] == ':'))
          continue;
        for (std::size_t s = stack.size(); s-- > 0;) {
          if (stack[s].is_class) {
            (is_lock ? stack[s].saw_lock : stack[s].saw_unlock) = true;
            break;
          }
        }
      }
    };
    mark("lock", true);
    mark("unlock", false);
  }
}

// ------------------------------------------------------------ cas-recycle

bool cas_recycle_applies(std::string_view path) {
  return starts_with(path, "src/") || starts_with(path, "include/");
}

/// The file's code channel as one string, with the line of every char.
struct FlatCode {
  std::string text;
  std::vector<std::size_t> line;  ///< 0-based line index per char
};

FlatCode flatten(const std::vector<LineInfo>& lines) {
  FlatCode f;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    f.text += lines[li].code;
    f.text.push_back('\n');
    f.line.resize(f.text.size(), li);
  }
  return f;
}

/// The ')' closing the '(' at `open`, or npos.
std::size_t match_paren(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t p = open; p < s.size(); ++p) {
    if (s[p] == '(') ++depth;
    if (s[p] == ')' && --depth == 0) return p;
  }
  return std::string::npos;
}

/// A compare_exchange on a field of a node reached through a pointer
/// (`n->state`) whose failure order is relaxed, unless it is the
/// condition of a retry loop. Losing such a CAS means another thread
/// granted or withdrew the node, and the loser acts on that: it
/// recycles the node, or carries on as if it had won. A relaxed failure
/// does not synchronize with the write it lost to, so the other
/// thread's last plain access to the node races with the node's next
/// owner. A retry loop (`while (!x->f.compare_exchange_weak(...))`)
/// re-reads and tries again, and is exempt.
void cas_recycle_run(const FileContext& ctx, std::vector<Finding>& out) {
  const FlatCode f = flatten(*ctx.lines);
  const std::string& s = f.text;
  for (std::string_view method :
       {"compare_exchange_strong", "compare_exchange_weak"}) {
    for (std::size_t p = find_token(s, method); p != std::string_view::npos;
         p = find_token(s, method, p + 1)) {
      std::size_t open = p + method.size();
      while (open < s.size() &&
             std::isspace(static_cast<unsigned char>(s[open])))
        ++open;
      if (open >= s.size() || s[open] != '(' || p < 1 || s[p - 1] != '.')
        continue;
      // Receiver: node->field.
      std::size_t fb = p - 1;
      while (fb > 0 && is_ident(s[fb - 1])) --fb;
      if (fb < 3 || fb == p - 1 || s[fb - 1] != '>' || s[fb - 2] != '-')
        continue;
      std::size_t nb = fb - 2;
      while (nb > 0 && is_ident(s[nb - 1])) --nb;
      const std::string node = s.substr(nb, fb - 2 - nb);
      if (node.empty()) continue;
      const std::string field = s.substr(fb, p - 1 - fb);

      // Failure order: the last memory order named in the call
      // (memory_order_relaxed or memory_order::relaxed).
      const std::size_t close = match_paren(s, open);
      if (close == std::string::npos) continue;
      const std::string args = s.substr(open, close - open);
      std::size_t order = args.rfind("memory_order");
      if (order == std::string::npos) continue;
      order += 12;
      while (order < args.size() && (args[order] == '_' || args[order] == ':'))
        ++order;
      if (args.compare(order, 7, "relaxed") != 0) continue;

      // A retry loop's condition: the word before the call, past
      // spaces, '!' and '(', is `while` (while and do-while alike).
      std::size_t q = nb;
      while (q > 0 && (std::isspace(static_cast<unsigned char>(s[q - 1])) ||
                       s[q - 1] == '!' || s[q - 1] == '('))
        --q;
      std::size_t wb = q;
      while (wb > 0 && is_ident(s[wb - 1])) --wb;
      if (s.compare(wb, q - wb, "while") == 0) continue;

      out.push_back(
          {ctx.path, f.line[p] + 1, "cas-recycle",
           "compare_exchange on '" + node + "->" + field +
               "' has a relaxed failure order outside a retry loop — a "
               "lost CAS that takes over the node must synchronize with "
               "the write it lost to; make the failure order "
               "memory_order_acquire"});
    }
  }
}

}  // namespace

// ----------------------------------------------------------------- layers

std::string_view layer_of(std::string_view path) {
  auto is_under = [&](std::string_view dir) {
    return starts_with(path, dir) ||
           starts_with(path, std::string("src/") + std::string(dir));
  };
  if (path == "qsv/wait.hpp" || path == "include/qsv/wait.hpp" ||
      path == "qsv/thread_safety.hpp" ||
      path == "include/qsv/thread_safety.hpp")
    return "api-common";
  if (starts_with(path, "qsv/") || starts_with(path, "include/qsv/"))
    return "facade";
  if (is_under("catalog/")) return "catalog";
  if (is_under("obs/")) return "obs";
  if (is_under("platform/")) return "platform";
  if (is_under("chk/")) return "chk";
  for (std::string_view d :
       {"core/", "locks/", "rwlocks/", "barriers/", "eventcount/",
        "combining/", "hier/", "trace/", "workload/", "sim/"}) {
    if (is_under(d)) return "primitives";
  }
  for (std::string_view d : {"benchreg/", "harness/", "validate/"}) {
    if (is_under(d)) return "toolkit";
  }
  for (std::string_view d : {"tests/", "bench/", "examples/", "tools/"}) {
    if (starts_with(path, d)) return "top";
  }
  return "";
}

// ------------------------------------------------------------- rule table

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kTable = {
      {"seam",
       "no raw yield/sleep/pause outside src/platform/ (the chk seam "
       "must be total)",
       seam_applies, seam_run},
      {"relaxed-justify",
       "memory_order_relaxed/consume in src/ and include/ must carry a "
       "'// relaxed:' justification",
       relaxed_applies, relaxed_run},
      {"implicit-order",
       "no implicit-seq_cst atomic operations in the hot layers "
       "(src/core, src/platform, src/eventcount, src/combining, "
       "src/obs, src/trace)",
       implicit_applies, implicit_run},
      {"layering",
       "the include graph is the documented DAG; src/chk and "
       "chk_hook.hpp stay unreachable from production layers, and "
       "src/obs/ registry machinery is reachable only through "
       "obs/hook.hpp from below",
       layering_applies, layering_run},
      {"capability",
       "facade types exposing lock()/unlock() carry QSV_CAPABILITY",
       capability_applies, capability_run},
      {"cas-recycle",
       "a compare_exchange on a node field outside a retry loop has an "
       "acquire (not relaxed) failure order",
       cas_recycle_applies, cas_recycle_run},
  };
  return kTable;
}

// ------------------------------------------------------------ lint drivers

namespace {

bool rule_selected(const std::vector<std::string>& only,
                   std::string_view name) {
  if (only.empty()) return true;
  for (const std::string& r : only) {
    if (r == name) return true;
  }
  return false;
}

}  // namespace

std::vector<Finding> lint_file(std::string_view virtual_path,
                               std::string_view content,
                               const std::vector<std::string>& only_rules) {
  std::vector<LineInfo> lines = lex(content);
  FileContext ctx;
  ctx.path = std::string(virtual_path);
  ctx.lines = &lines;
  std::vector<Finding> out;
  for (const Rule& r : rules()) {
    if (!rule_selected(only_rules, r.name)) continue;
    if (!r.applies(ctx.path)) continue;
    r.run(ctx, out);
  }
  return out;
}

std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& only_rules) {
  namespace fs = std::filesystem;
  std::vector<Finding> out;
  std::vector<std::string> files;
  for (const char* dir : {"src", "include", "tests", "bench"}) {
    fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& e : fs::recursive_directory_iterator(base)) {
      if (!e.is_regular_file()) continue;
      std::string ext = e.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h") continue;
      files.push_back(fs::relative(e.path(), root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& rel : files) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    for (Finding& f : lint_file(rel, buf.str(), only_rules)) {
      out.push_back(std::move(f));
    }
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace qsvlint
