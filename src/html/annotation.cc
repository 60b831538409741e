#include "src/html/annotation.h"

#include <string>

namespace revere::html {

namespace {

void Collect(const xml::XmlNode& node, std::vector<AnnotatedRegion>* out) {
  if (node.is_element()) {
    auto tag = node.GetAttribute(kTagAttr);
    if (tag.has_value() && !tag->empty()) {
      AnnotatedRegion region;
      region.node = &node;
      region.tag = *tag;
      region.id = node.GetAttribute(kIdAttr).value_or("");
      out->push_back(std::move(region));
    }
  }
  for (const auto& c : node.children()) Collect(*c, out);
}

}  // namespace

std::vector<AnnotatedRegion> FindAnnotations(const xml::XmlNode& root) {
  std::vector<AnnotatedRegion> out;
  Collect(root, &out);
  return out;
}

size_t FindTextOccurrence(std::string_view html, std::string_view target,
                          size_t from) {
  if (target.empty()) return std::string_view::npos;
  size_t pos = from;
  while (true) {
    pos = html.find(target, pos);
    if (pos == std::string_view::npos) return pos;
    // Inside a tag if the nearest '<' before pos has no '>' between.
    size_t lt = html.rfind('<', pos);
    if (lt == std::string_view::npos) return pos;
    size_t gt = html.find('>', lt);
    if (gt != std::string_view::npos && gt < pos) return pos;
    pos += 1;
  }
}

std::string SpanOpenTag(std::string_view tag_name, std::string_view id) {
  std::string open = "<span ";
  open += kTagAttr;
  open += "=\"";
  open += tag_name;
  open += '"';
  if (!id.empty()) {
    open += ' ';
    open += kIdAttr;
    open += "=\"";
    open += id;
    open += '"';
  }
  open += '>';
  return open;
}

Result<std::string> WrapSpan(std::string_view html, size_t begin, size_t end,
                             std::string_view tag_name,
                             std::string_view id) {
  if (begin > end || end > html.size()) {
    return Status::OutOfRange("span range [" + std::to_string(begin) + ", " +
                              std::to_string(end) + ") outside page of size " +
                              std::to_string(html.size()));
  }
  std::string out(html.substr(0, begin));
  out += SpanOpenTag(tag_name, id);
  out += std::string(html.substr(begin, end - begin));
  out += "</span>";
  out += std::string(html.substr(end));
  return out;
}

Result<std::string> AnnotateFirst(std::string_view html_source,
                                  std::string_view target,
                                  std::string_view tag_name) {
  size_t pos = FindTextOccurrence(html_source, target);
  if (pos == std::string_view::npos) {
    return Status::NotFound("text '" + std::string(target) +
                            "' not found in page");
  }
  return WrapSpan(html_source, pos, pos + target.size(), tag_name);
}

Result<std::string> AnnotateRange(std::string_view html_source,
                                  std::string_view from, std::string_view to,
                                  std::string_view tag_name,
                                  std::string_view id) {
  size_t start = FindTextOccurrence(html_source, from);
  if (start == std::string_view::npos) {
    return Status::NotFound("range start '" + std::string(from) +
                            "' not found");
  }
  size_t end = FindTextOccurrence(html_source, to, start + from.size());
  if (end == std::string_view::npos) {
    return Status::NotFound("range end '" + std::string(to) +
                            "' not found after start");
  }
  return WrapSpan(html_source, start, end + to.size(), tag_name, id);
}

}  // namespace revere::html
