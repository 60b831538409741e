#include "src/common/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace revere {

std::vector<std::string> Split(std::string_view input, char delim,
                               bool skip_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= input.size()) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) pos = input.size();
    std::string_view piece = input.substr(start, pos - start);
    if (!piece.empty() || !skip_empty) out.emplace_back(piece);
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitAny(std::string_view input,
                                  std::string_view delims, bool skip_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= input.size()) {
    size_t pos = input.find_first_of(delims, start);
    if (pos == std::string_view::npos) pos = input.size();
    std::string_view piece = input.substr(start, pos - start);
    if (!piece.empty() || !skip_empty) out.emplace_back(piece);
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) break;
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  out.append(s.substr(start));
  return out;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Numbered(std::string_view prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

std::string FormatDoubleExact(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

std::string QuoteValue(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\' || ch == '\n') out += '\\';
    out += ch == '\n' ? 'n' : ch;
  }
  out += '"';
  return out;
}

Result<std::vector<std::string>> Tokenize(std::string_view line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) break;
    if (line[i] == '"') {
      std::string tok;
      ++i;
      bool closed = false;
      while (i < line.size()) {
        char ch = line[i++];
        if (ch == '\\' && i < line.size()) {
          ch = line[i++];
          tok += ch == 'n' ? '\n' : ch;
        } else if (ch == '"') {
          closed = true;
          break;
        } else {
          tok += ch;
        }
      }
      if (!closed) return Status::ParseError("unterminated quoted value");
      out.push_back(std::move(tok));
    } else {
      size_t start = i;
      while (i < line.size() && line[i] != ' ') ++i;
      out.emplace_back(line.substr(start, i - start));
    }
  }
  return out;
}

}  // namespace revere
