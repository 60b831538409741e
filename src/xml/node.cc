#include "src/xml/node.h"

namespace revere::xml {

XmlNode::XmlNode(Kind kind, std::string payload) : kind_(kind) {
  if (kind_ == Kind::kElement) {
    tag_ = std::move(payload);
  } else {
    text_ = std::move(payload);
  }
}

XmlNode::~XmlNode() {
  std::vector<std::unique_ptr<XmlNode>> pending = std::move(children_);
  while (!pending.empty()) {
    std::unique_ptr<XmlNode> node = std::move(pending.back());
    pending.pop_back();
    for (auto& child : node->children_) pending.push_back(std::move(child));
    node->children_.clear();  // so `node` dies without recursing
  }
}

std::unique_ptr<XmlNode> XmlNode::Element(std::string tag) {
  return std::unique_ptr<XmlNode>(
      new XmlNode(Kind::kElement, std::move(tag)));
}

std::unique_ptr<XmlNode> XmlNode::Text(std::string text) {
  return std::unique_ptr<XmlNode>(new XmlNode(Kind::kText, std::move(text)));
}

void XmlNode::SetAttribute(std::string name, std::string value) {
  for (auto& [n, v] : attributes_) {
    if (n == name) {
      v = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(std::move(name), std::move(value));
}

std::optional<std::string> XmlNode::GetAttribute(
    std::string_view name) const {
  for (const auto& [n, v] : attributes_) {
    if (n == name) return v;
  }
  return std::nullopt;
}

bool XmlNode::HasAttribute(std::string_view name) const {
  return GetAttribute(name).has_value();
}

XmlNode* XmlNode::AddChild(std::unique_ptr<XmlNode> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

XmlNode* XmlNode::AddElement(std::string tag, std::string text) {
  XmlNode* el = AddChild(Element(std::move(tag)));
  if (!text.empty()) el->AddText(std::move(text));
  return el;
}

XmlNode* XmlNode::AddText(std::string text) {
  return AddChild(Text(std::move(text)));
}

std::vector<XmlNode*> XmlNode::ChildElements(std::string_view tag) const {
  std::vector<XmlNode*> out;
  for (const auto& c : children_) {
    if (c->is_element() && c->tag() == tag) out.push_back(c.get());
  }
  return out;
}

std::vector<XmlNode*> XmlNode::ChildElements() const {
  std::vector<XmlNode*> out;
  for (const auto& c : children_) {
    if (c->is_element()) out.push_back(c.get());
  }
  return out;
}

XmlNode* XmlNode::FirstChild(std::string_view tag) const {
  for (const auto& c : children_) {
    if (c->is_element() && c->tag() == tag) return c.get();
  }
  return nullptr;
}

namespace {
void CollectDescendants(const XmlNode* node, std::string_view tag,
                        std::vector<XmlNode*>* out) {
  for (const auto& c : node->children()) {
    if (c->is_element()) {
      if (c->tag() == tag) out->push_back(c.get());
      CollectDescendants(c.get(), tag, out);
    }
  }
}
}  // namespace

std::vector<XmlNode*> XmlNode::Descendants(std::string_view tag) const {
  std::vector<XmlNode*> out;
  CollectDescendants(this, tag, &out);
  return out;
}

std::string XmlNode::InnerText() const {
  if (is_text()) return text_;
  std::string out;
  for (const auto& c : children_) out += c->InnerText();
  return out;
}

std::unique_ptr<XmlNode> XmlNode::Clone() const {
  std::unique_ptr<XmlNode> copy =
      is_element() ? Element(tag_) : Text(text_);
  copy->attributes_ = attributes_;
  for (const auto& c : children_) copy->AddChild(c->Clone());
  return copy;
}

size_t XmlNode::SubtreeSize() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->SubtreeSize();
  return n;
}

}  // namespace revere::xml
