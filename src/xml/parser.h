#ifndef REVERE_XML_PARSER_H_
#define REVERE_XML_PARSER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/xml/node.h"

namespace revere::xml {

/// Deepest element nesting ParseXml accepts (a top-level element is at
/// depth 1). The parser recurses once per level, so a deeper document
/// is a ParseError rather than a stack overflow.
inline constexpr size_t kMaxXmlDepth = 256;

/// Parses a well-formed XML document into a tree. The returned node is a
/// synthetic "#document" element whose children are the declaration-free
/// top-level nodes. Strict: mismatched tags and nesting deeper than
/// kMaxXmlDepth are a ParseError.
Result<std::unique_ptr<XmlNode>> ParseXml(std::string_view input);

/// Serializes `node` back to markup. Text is escaped; `pretty` adds
/// two-space indentation. A "#document" root serializes its children only.
std::string Serialize(const XmlNode& node, bool pretty = false);

/// Escapes &, <, >, and double quotes for inclusion in markup.
std::string EscapeText(std::string_view text);
/// Reverses EscapeText (also handles &apos; and decimal refs).
std::string UnescapeText(std::string_view text);

}  // namespace revere::xml

#endif  // REVERE_XML_PARSER_H_
