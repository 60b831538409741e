#include "src/html/parser.h"

#include <cctype>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/strings.h"
#include "src/xml/parser.h"

namespace revere::html {

namespace {

using xml::XmlNode;

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
         c == '_' || c == ':';
}

class HtmlParser {
 public:
  explicit HtmlParser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<XmlNode>> Parse() {
    auto doc = XmlNode::Element("#document");
    open_.push_back(doc.get());
    while (pos_ < input_.size()) {
      if (LookingAt("<!--")) {
        size_t end = input_.find("-->", pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 3;
        continue;
      }
      if (LookingAt("<!") || LookingAt("<?")) {
        size_t end = input_.find('>', pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 1;
        continue;
      }
      if (LookingAt("</")) {
        HandleCloseTag();
        continue;
      }
      if (input_[pos_] == '<' && pos_ + 1 < input_.size() &&
          (std::isalpha(static_cast<unsigned char>(input_[pos_ + 1])) != 0)) {
        // The open elements below the document are the new one's depth.
        if (open_.size() > xml::kMaxXmlDepth) {
          return Status::ParseError(
              "elements nested deeper than " +
              std::to_string(xml::kMaxXmlDepth) + " at offset " +
              std::to_string(pos_));
        }
        HandleOpenTag();
        continue;
      }
      HandleText();
    }
    return doc;
  }

 private:
  bool LookingAt(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  std::string ReadName() {
    size_t start = pos_;
    while (pos_ < input_.size() && IsWordChar(input_[pos_])) ++pos_;
    return ToLower(input_.substr(start, pos_ - start));
  }

  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  void ParseAttributes(XmlNode* el, bool* self_closing) {
    *self_closing = false;
    while (pos_ < input_.size()) {
      SkipWhitespace();
      if (pos_ >= input_.size()) return;
      if (input_[pos_] == '>') {
        ++pos_;
        return;
      }
      if (LookingAt("/>")) {
        pos_ += 2;
        *self_closing = true;
        return;
      }
      std::string name = ReadName();
      if (name.empty()) {  // junk character; skip it
        ++pos_;
        continue;
      }
      SkipWhitespace();
      std::string value;
      if (pos_ < input_.size() && input_[pos_] == '=') {
        ++pos_;
        SkipWhitespace();
        char q = pos_ < input_.size() ? input_[pos_] : '\0';
        if (q == '"' || q == '\'') {
          ++pos_;
          size_t start = pos_;
          while (pos_ < input_.size() && input_[pos_] != q) ++pos_;
          value = xml::UnescapeText(input_.substr(start, pos_ - start));
          if (pos_ < input_.size()) ++pos_;
        } else {
          size_t start = pos_;
          while (pos_ < input_.size() &&
                 !std::isspace(static_cast<unsigned char>(input_[pos_])) &&
                 input_[pos_] != '>') {
            ++pos_;
          }
          value = std::string(input_.substr(start, pos_ - start));
        }
      }
      el->SetAttribute(std::move(name), std::move(value));
    }
  }

  void HandleOpenTag() {
    ++pos_;  // '<'
    std::string tag = ReadName();
    auto el = XmlNode::Element(tag);
    XmlNode* raw = el.get();
    bool self_closing = false;
    ParseAttributes(raw, &self_closing);
    open_.back()->AddChild(std::move(el));
    if (self_closing || IsVoidElement(tag)) return;
    if (tag == "script" || tag == "style") {
      // Raw text until matching close tag.
      std::string close = "</" + tag;
      size_t end = input_.find(close, pos_);
      size_t stop = end == std::string_view::npos ? input_.size() : end;
      std::string body(input_.substr(pos_, stop - pos_));
      if (!Trim(body).empty()) raw->AddText(std::move(body));
      if (end == std::string_view::npos) {
        pos_ = input_.size();
      } else {
        pos_ = input_.find('>', end);
        pos_ = pos_ == std::string_view::npos ? input_.size() : pos_ + 1;
      }
      return;
    }
    open_.push_back(raw);
  }

  void HandleCloseTag() {
    pos_ += 2;  // "</"
    std::string tag = ReadName();
    size_t gt = input_.find('>', pos_);
    pos_ = gt == std::string_view::npos ? input_.size() : gt + 1;
    // Pop to the matching ancestor if one exists; otherwise ignore.
    for (size_t i = open_.size(); i-- > 1;) {
      if (open_[i]->tag() == tag) {
        open_.resize(i);
        return;
      }
    }
  }

  void HandleText() {
    size_t start = pos_;
    // A stray '<' not opening a tag (e.g. "<3", "a < b") is literal
    // text; consume it so the parser always makes progress.
    if (pos_ < input_.size() && input_[pos_] == '<') ++pos_;
    while (pos_ < input_.size() && input_[pos_] != '<') ++pos_;
    std::string text(input_.substr(start, pos_ - start));
    if (!Trim(text).empty()) {
      open_.back()->AddText(xml::UnescapeText(text));
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  std::vector<XmlNode*> open_;
};

void CollectVisible(const XmlNode& node, std::string* out) {
  if (node.is_text()) {
    *out += node.text();
    return;
  }
  if (node.tag() == "script" || node.tag() == "style") return;
  for (const auto& c : node.children()) {
    CollectVisible(*c, out);
    if (c->is_element()) *out += ' ';
  }
}

}  // namespace

bool IsVoidElement(std::string_view tag) {
  static const std::unordered_set<std::string_view> kVoid = {
      "area", "base", "br",   "col",  "embed",  "hr",    "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  return kVoid.count(tag) > 0;
}

Result<std::unique_ptr<xml::XmlNode>> ParseHtml(std::string_view input) {
  return HtmlParser(input).Parse();
}

std::string VisibleText(const xml::XmlNode& root) {
  std::string out;
  CollectVisible(root, &out);
  return out;
}

}  // namespace revere::html
