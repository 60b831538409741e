#ifndef REVERE_HTML_PARSER_H_
#define REVERE_HTML_PARSER_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/xml/node.h"

namespace revere::html {

/// Parses real-world HTML into the shared XML node model, tolerantly:
///   - tag names are case-normalized to lower case,
///   - void elements (<br>, <img>, ...) need no close tag,
///   - unmatched close tags are ignored,
///   - elements left open are closed at end of input,
///   - a close tag matching an ancestor pops the intermediate elements,
///   - <script>/<style> bodies are kept as raw text.
/// Malformed markup never fails — MANGROVE must accept pages as they are
/// (§2.1). The one error is an element nested deeper than
/// xml::kMaxXmlDepth (a ParseError, as in ParseXml), which bounds the
/// recursion of everything that walks the tree.
Result<std::unique_ptr<xml::XmlNode>> ParseHtml(std::string_view input);

/// True for HTML void elements.
bool IsVoidElement(std::string_view tag);

/// Extracts the rendered text of a page (InnerText minus script/style).
std::string VisibleText(const xml::XmlNode& root);

}  // namespace revere::html

#endif  // REVERE_HTML_PARSER_H_
