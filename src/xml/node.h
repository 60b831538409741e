#ifndef REVERE_XML_NODE_H_
#define REVERE_XML_NODE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace revere::xml {

/// A node in an XML/HTML document tree: either an element (tag +
/// attributes + children) or a text node. Piazza "assumes an XML data
/// model, since this is general enough to encompass relational,
/// hierarchical, or semi-structured data, including marked up HTML pages"
/// (§3.1) — this is that model.
class XmlNode {
 public:
  enum class Kind { kElement, kText };

  /// Creates an element node.
  static std::unique_ptr<XmlNode> Element(std::string tag);
  /// Creates a text node.
  static std::unique_ptr<XmlNode> Text(std::string text);

  /// Frees the subtree iteratively: a destructor that recursed once per
  /// level would overflow the stack on a deep tree.
  ~XmlNode();

  Kind kind() const { return kind_; }
  bool is_element() const { return kind_ == Kind::kElement; }
  bool is_text() const { return kind_ == Kind::kText; }

  /// Element tag name (empty for text nodes).
  const std::string& tag() const { return tag_; }
  /// Text content (only for text nodes).
  const std::string& text() const { return text_; }

  // -- Attributes (elements only; insertion order preserved) --
  void SetAttribute(std::string name, std::string value);
  std::optional<std::string> GetAttribute(std::string_view name) const;
  bool HasAttribute(std::string_view name) const;
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }

  // -- Children --
  XmlNode* AddChild(std::unique_ptr<XmlNode> child);
  /// Convenience: appends <tag>text</tag> and returns the new element.
  XmlNode* AddElement(std::string tag, std::string text = "");
  /// Convenience: appends a text child.
  XmlNode* AddText(std::string text);

  const std::vector<std::unique_ptr<XmlNode>>& children() const {
    return children_;
  }
  XmlNode* parent() const { return parent_; }

  /// Direct element children with the given tag.
  std::vector<XmlNode*> ChildElements(std::string_view tag) const;
  /// All direct element children.
  std::vector<XmlNode*> ChildElements() const;
  /// First direct element child with the given tag, or nullptr.
  XmlNode* FirstChild(std::string_view tag) const;

  /// All descendant elements (depth-first, pre-order) with `tag`.
  std::vector<XmlNode*> Descendants(std::string_view tag) const;

  /// Concatenated text of all descendant text nodes.
  std::string InnerText() const;

  /// Deep copy of this subtree.
  std::unique_ptr<XmlNode> Clone() const;

  /// Number of nodes in this subtree (including this one).
  size_t SubtreeSize() const;

 private:
  XmlNode(Kind kind, std::string payload);

  Kind kind_;
  std::string tag_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<XmlNode>> children_;
  XmlNode* parent_ = nullptr;
};

}  // namespace revere::xml

#endif  // REVERE_XML_NODE_H_
