// lexer.cpp — comment/string-aware line lexing and findings
// serialization.
#include "qsvlint/qsvlint.hpp"

#include <cctype>
#include <cstdio>

namespace qsvlint {

// ------------------------------------------------------------------ lexer

std::vector<LineInfo> lex(std::string_view content) {
  enum class State {
    kNormal,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };

  std::vector<LineInfo> lines;
  LineInfo cur;
  State st = State::kNormal;
  std::string raw_delim;  // raw string: the ")delim" terminator
  bool escaped = false;

  auto flush_line = [&] {
    std::string_view code_view(cur.code);
    std::size_t nonspace = code_view.find_first_not_of(" \t");
    cur.comment_only =
        nonspace == std::string_view::npos && !cur.comment.empty();
    lines.push_back(std::move(cur));
    cur = LineInfo{};
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    if (c == '\r') continue;
    if (c == '\n') {
      // A newline ends // comments and (for our per-line channels) the
      // current line in every state; multi-line constructs keep their
      // state across the flush.
      if (st == State::kLineComment) st = State::kNormal;
      flush_line();
      escaped = false;
      continue;
    }
    cur.raw.push_back(c);
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (st) {
      case State::kNormal: {
        if (c == '/' && next == '/') {
          st = State::kLineComment;
          cur.code.push_back(' ');
          break;
        }
        if (c == '/' && next == '*') {
          st = State::kBlockComment;
          cur.code.push_back(' ');
          cur.code.push_back(' ');
          ++i;
          cur.raw.push_back('*');
          break;
        }
        if (c == '"') {
          // Raw string? The opener is R" with R not part of a longer
          // identifier (covers R"", u8R"", LR"" via the suffix check).
          bool raw = false;
          if (!cur.code.empty() && cur.code.back() == 'R') {
            std::size_t n = cur.code.size();
            raw = n < 2 || (!std::isalnum(static_cast<unsigned char>(
                                cur.code[n - 2])) &&
                            cur.code[n - 2] != '_') ||
                  cur.code[n - 2] == '8' || cur.code[n - 2] == 'L' ||
                  cur.code[n - 2] == 'u' || cur.code[n - 2] == 'U';
          }
          cur.code.push_back('"');
          if (raw) {
            // assign(1, ch) rather than = ")": GCC 12's -O3 restrict
            // checker misdiagnoses the literal assignment as a
            // potentially-overlapping memcpy.
            raw_delim.assign(1, ')');
            std::size_t j = i + 1;
            while (j < content.size() && content[j] != '(' &&
                   content[j] != '\n' && raw_delim.size() < 18) {
              raw_delim.push_back(content[j]);
              ++j;
            }
            raw_delim.push_back('"');
            st = State::kRawString;
          } else {
            st = State::kString;
          }
          escaped = false;
          break;
        }
        if (c == '\'') {
          // Digit separators (1'000'000) are not character literals:
          // a quote directly after an alnum inside a number is a
          // separator. Heuristic: previous code char is a digit and the
          // next char is alnum.
          if (!cur.code.empty() &&
              std::isdigit(static_cast<unsigned char>(cur.code.back())) &&
              (std::isalnum(static_cast<unsigned char>(next)))) {
            cur.code.push_back('\'');
            break;
          }
          cur.code.push_back('\'');
          st = State::kChar;
          escaped = false;
          break;
        }
        cur.code.push_back(c);
        break;
      }
      case State::kLineComment:
        cur.comment.push_back(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          st = State::kNormal;
          ++i;
          cur.raw.push_back('/');
        } else {
          cur.comment.push_back(c);
        }
        break;
      case State::kString:
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '"') {
          cur.code.push_back('"');
          st = State::kNormal;
          break;
        }
        cur.code.push_back(' ');
        break;
      case State::kChar:
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '\'') {
          cur.code.push_back('\'');
          st = State::kNormal;
          break;
        }
        cur.code.push_back(' ');
        break;
      case State::kRawString: {
        // Close only on the exact ")delim"" terminator.
        if (c == ')' &&
            content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            cur.raw.push_back(content[i + k]);
          }
          i += raw_delim.size() - 1;
          cur.code.push_back('"');
          st = State::kNormal;
        } else {
          cur.code.push_back(' ');
        }
        break;
      }
    }
  }
  if (!cur.raw.empty() || !cur.code.empty() || !cur.comment.empty()) {
    flush_line();
  }
  return lines;
}

// --------------------------------------------------------------- findings

namespace {

void json_escape(const std::string& s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace

std::string findings_to_json(const std::vector<Finding>& findings) {
  std::string out = "{\n  \"version\": \"qsvlint/1\",\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"file\": \"";
    json_escape(f.file, out);
    out += "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"";
    json_escape(f.rule, out);
    out += "\", \"message\": \"";
    json_escape(f.message, out);
    out += "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string finding_to_text(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace qsvlint
