#include "src/xml/parser.h"

#include <cctype>

#include "src/common/strings.h"

namespace revere::xml {

namespace {

/// Recursive-descent XML parser over a flat character cursor.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<XmlNode>> Parse() {
    auto doc = XmlNode::Element("#document");
    while (!AtEnd()) {
      SkipMisc();
      if (AtEnd()) break;
      if (Peek() != '<') {
        // Top-level stray text: keep it (whitespace-only is dropped).
        std::string text = ReadText();
        if (!Trim(text).empty()) doc->AddText(UnescapeText(text));
        continue;
      }
      REVERE_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> el, ParseElement(1));
      if (el != nullptr) doc->AddChild(std::move(el));
    }
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  bool LookingAt(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }
  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  // Skips declarations, processing instructions, comments, DOCTYPE.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (LookingAt("<?")) {
        size_t end = input_.find("?>", pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 2;
      } else if (LookingAt("<!--")) {
        size_t end = input_.find("-->", pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 3;
      } else if (LookingAt("<!DOCTYPE") || LookingAt("<!doctype")) {
        size_t end = input_.find('>', pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 1;
      } else {
        return;
      }
    }
  }

  std::string ReadText() {
    size_t start = pos_;
    while (!AtEnd() && Peek() != '<') ++pos_;
    return std::string(input_.substr(start, pos_ - start));
  }

  std::string ReadName() {
    size_t start = pos_;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == ':' || c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  Status ParseAttributes(XmlNode* el, bool* self_closing) {
    *self_closing = false;
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Status::ParseError("unterminated tag");
      if (Peek() == '>') {
        ++pos_;
        return Status::Ok();
      }
      if (LookingAt("/>")) {
        pos_ += 2;
        *self_closing = true;
        return Status::Ok();
      }
      std::string name = ReadName();
      if (name.empty()) {
        return Status::ParseError("bad attribute at offset " +
                                  std::to_string(pos_));
      }
      SkipWhitespace();
      std::string value;
      if (Peek() == '=') {
        ++pos_;
        SkipWhitespace();
        char quote = Peek();
        if (quote == '"' || quote == '\'') {
          ++pos_;
          size_t start = pos_;
          while (!AtEnd() && Peek() != quote) ++pos_;
          if (AtEnd()) return Status::ParseError("unterminated attribute");
          value = UnescapeText(input_.substr(start, pos_ - start));
          ++pos_;
        } else {
          // Unquoted value (HTML tolerance).
          size_t start = pos_;
          while (!AtEnd() && !std::isspace(static_cast<unsigned char>(Peek())) &&
                 Peek() != '>' && !LookingAt("/>")) {
            ++pos_;
          }
          value = std::string(input_.substr(start, pos_ - start));
        }
      }
      el->SetAttribute(std::move(name), std::move(value));
    }
  }

  /// Parses the element at `depth` (top level = 1).
  Result<std::unique_ptr<XmlNode>> ParseElement(size_t depth) {
    // Caller guarantees Peek() == '<'.
    if (depth > kMaxXmlDepth) {
      return Status::ParseError("elements nested deeper than " +
                                std::to_string(kMaxXmlDepth) +
                                " at offset " + std::to_string(pos_));
    }
    ++pos_;
    std::string tag = ReadName();
    if (tag.empty()) {
      return Status::ParseError("expected tag name at offset " +
                                std::to_string(pos_));
    }
    auto el = XmlNode::Element(tag);
    bool self_closing = false;
    REVERE_RETURN_IF_ERROR(ParseAttributes(el.get(), &self_closing));
    if (self_closing) return el;

    // Children until matching close tag.
    while (true) {
      if (AtEnd()) {
        return Status::ParseError("unclosed element <" + tag + ">");
      }
      if (LookingAt("</")) {
        pos_ += 2;
        std::string close = ReadName();
        SkipWhitespace();
        if (Peek() == '>') ++pos_;
        if (close != tag) {
          return Status::ParseError("mismatched close tag </" + close +
                                    "> for <" + tag + ">");
        }
        return el;
      }
      if (LookingAt("<!--")) {
        size_t end = input_.find("-->", pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 3;
        continue;
      }
      if (LookingAt("<![CDATA[")) {
        size_t start = pos_ + 9;
        size_t end = input_.find("]]>", start);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated CDATA");
        }
        el->AddText(std::string(input_.substr(start, end - start)));
        pos_ = end + 3;
        continue;
      }
      if (Peek() == '<') {
        REVERE_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> child,
                                ParseElement(depth + 1));
        el->AddChild(std::move(child));
        continue;
      }
      std::string text = ReadText();
      if (!Trim(text).empty()) el->AddText(UnescapeText(text));
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

void SerializeNode(const XmlNode& node, bool pretty, int depth,
                   std::string* out) {
  auto indent = [&] {
    if (pretty) out->append(static_cast<size_t>(depth) * 2, ' ');
  };
  if (node.is_text()) {
    indent();
    out->append(EscapeText(node.text()));
    if (pretty) out->push_back('\n');
    return;
  }
  if (node.tag() == "#document") {
    for (const auto& c : node.children()) {
      SerializeNode(*c, pretty, depth, out);
    }
    return;
  }
  indent();
  out->push_back('<');
  out->append(node.tag());
  for (const auto& [n, v] : node.attributes()) {
    out->push_back(' ');
    out->append(n);
    out->append("=\"");
    out->append(EscapeText(v));
    out->push_back('"');
  }
  if (node.children().empty()) {
    out->append("/>");
    if (pretty) out->push_back('\n');
    return;
  }
  out->push_back('>');
  // Single text child stays inline even in pretty mode.
  bool inline_text =
      node.children().size() == 1 && node.children()[0]->is_text();
  if (inline_text) {
    out->append(EscapeText(node.children()[0]->text()));
  } else {
    if (pretty) out->push_back('\n');
    for (const auto& c : node.children()) {
      SerializeNode(*c, pretty, depth + 1, out);
    }
    indent();
  }
  out->append("</");
  out->append(node.tag());
  out->push_back('>');
  if (pretty) out->push_back('\n');
}

}  // namespace

Result<std::unique_ptr<XmlNode>> ParseXml(std::string_view input) {
  return Parser(input).Parse();
}

std::string Serialize(const XmlNode& node, bool pretty) {
  std::string out;
  SerializeNode(node, pretty, 0, &out);
  return out;
}

std::string EscapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '&') {
      auto try_entity = [&](std::string_view entity, char repl) {
        if (text.substr(i, entity.size()) == entity) {
          out.push_back(repl);
          i += entity.size();
          return true;
        }
        return false;
      };
      if (try_entity("&amp;", '&') || try_entity("&lt;", '<') ||
          try_entity("&gt;", '>') || try_entity("&quot;", '"') ||
          try_entity("&apos;", '\'')) {
        continue;
      }
      if (text.substr(i, 2) == "&#") {
        size_t end = text.find(';', i);
        if (end != std::string_view::npos && end - i <= 8) {
          int code = 0;
          bool valid = true;
          for (size_t j = i + 2; j < end; ++j) {
            if (!std::isdigit(static_cast<unsigned char>(text[j]))) {
              valid = false;
              break;
            }
            code = code * 10 + (text[j] - '0');
          }
          if (valid && code > 0 && code < 128) {
            out.push_back(static_cast<char>(code));
            i = end + 1;
            continue;
          }
        }
      }
    }
    out.push_back(text[i++]);
  }
  return out;
}

}  // namespace revere::xml
