#include "src/query/cq.h"

#include <cctype>

#include "src/common/strings.h"

namespace revere::query {

QTerm QTerm::Var(std::string name) {
  QTerm t;
  t.is_var_ = true;
  t.var_ = std::move(name);
  return t;
}

QTerm QTerm::Const(storage::Value value) {
  QTerm t;
  t.is_var_ = false;
  t.value_ = std::move(value);
  return t;
}

bool QTerm::operator==(const QTerm& other) const {
  if (is_var_ != other.is_var_) return false;
  return is_var_ ? var_ == other.var_ : value_ == other.value_;
}

bool QTerm::operator<(const QTerm& other) const {
  if (is_var_ != other.is_var_) return is_var_ < other.is_var_;
  return is_var_ ? var_ < other.var_ : value_ < other.value_;
}

std::string QTerm::ToString() const {
  if (is_var_) return var_;
  if (value_.type() == storage::ValueType::kString) {
    return "\"" + value_.as_string() + "\"";
  }
  return value_.ToString();
}

std::string Atom::ToString() const {
  std::string out = relation + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString();
  }
  return out + ")";
}

QTerm Apply(const Substitution& sub, const QTerm& term) {
  if (!term.is_var()) return term;
  auto it = sub.find(term.var());
  return it == sub.end() ? term : it->second;
}

Atom Apply(const Substitution& sub, const Atom& atom) {
  Atom out;
  out.relation = atom.relation;
  out.args.reserve(atom.args.size());
  for (const auto& t : atom.args) out.args.push_back(Apply(sub, t));
  return out;
}

std::vector<Atom> Apply(const Substitution& sub,
                        const std::vector<Atom>& atoms) {
  std::vector<Atom> out;
  out.reserve(atoms.size());
  for (const auto& a : atoms) out.push_back(Apply(sub, a));
  return out;
}

namespace {

// ---- Parsing -----------------------------------------------------------

struct Cursor {
  std::string_view text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool AtEnd() {
    SkipWs();
    return pos >= text.size();
  }
  char Peek() {
    SkipWs();
    return pos < text.size() ? text[pos] : '\0';
  }
  bool Consume(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool Consume(std::string_view s) {
    SkipWs();
    if (text.substr(pos, s.size()) == s) {
      pos += s.size();
      return true;
    }
    return false;
  }
};

Result<std::string> ParseIdentifier(Cursor* c) {
  c->SkipWs();
  size_t start = c->pos;
  while (c->pos < c->text.size()) {
    char ch = c->text[c->pos];
    if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
        ch == '.' || ch == ':') {
      ++c->pos;
    } else {
      break;
    }
  }
  if (c->pos == start) {
    return Status::ParseError("expected identifier at offset " +
                              std::to_string(start));
  }
  return std::string(c->text.substr(start, c->pos - start));
}

Result<QTerm> ParseTerm(Cursor* c) {
  c->SkipWs();
  if (c->Peek() == '"') {
    ++c->pos;
    size_t start = c->pos;
    while (c->pos < c->text.size() && c->text[c->pos] != '"') ++c->pos;
    if (c->pos >= c->text.size()) {
      return Status::ParseError("unterminated string constant");
    }
    std::string v(c->text.substr(start, c->pos - start));
    ++c->pos;
    return QTerm::Const(storage::Value(std::move(v)));
  }
  char first = c->Peek();
  if (std::isdigit(static_cast<unsigned char>(first)) || first == '-') {
    size_t start = c->pos;
    if (first == '-') ++c->pos;
    bool is_double = false;
    while (c->pos < c->text.size() &&
           (std::isdigit(static_cast<unsigned char>(c->text[c->pos])) ||
            c->text[c->pos] == '.')) {
      if (c->text[c->pos] == '.') is_double = true;
      ++c->pos;
    }
    std::string num(c->text.substr(start, c->pos - start));
    if (is_double) return QTerm::Const(storage::Value(std::stod(num)));
    return QTerm::Const(
        storage::Value(static_cast<int64_t>(std::stoll(num))));
  }
  REVERE_ASSIGN_OR_RETURN(std::string id, ParseIdentifier(c));
  if (std::isupper(static_cast<unsigned char>(id[0])) || id[0] == '_') {
    return QTerm::Var(std::move(id));
  }
  // Lower-case bare identifiers are symbolic string constants.
  return QTerm::Const(storage::Value(std::move(id)));
}

Result<Atom> ParseAtom(Cursor* c) {
  REVERE_ASSIGN_OR_RETURN(std::string rel, ParseIdentifier(c));
  Atom atom;
  atom.relation = std::move(rel);
  if (!c->Consume('(')) {
    return Status::ParseError("expected '(' after relation name '" +
                              atom.relation + "'");
  }
  if (c->Consume(')')) return atom;  // nullary
  while (true) {
    REVERE_ASSIGN_OR_RETURN(QTerm t, ParseTerm(c));
    atom.args.push_back(std::move(t));
    if (c->Consume(')')) return atom;
    if (!c->Consume(',')) {
      return Status::ParseError("expected ',' or ')' in atom '" +
                                atom.relation + "'");
    }
  }
}

}  // namespace

Result<ConjunctiveQuery> ConjunctiveQuery::Parse(std::string_view text) {
  Cursor c{text};
  REVERE_ASSIGN_OR_RETURN(Atom head, ParseAtom(&c));
  std::vector<Atom> body;
  if (!c.AtEnd()) {
    if (!c.Consume(":-")) {
      return Status::ParseError("expected ':-' after head");
    }
    while (true) {
      REVERE_ASSIGN_OR_RETURN(Atom a, ParseAtom(&c));
      body.push_back(std::move(a));
      if (!c.Consume(',')) break;
    }
    if (!c.AtEnd()) {
      return Status::ParseError("trailing input after body at offset " +
                                std::to_string(c.pos));
    }
  }
  return ConjunctiveQuery(head.relation, head.args, std::move(body));
}

std::set<std::string> ConjunctiveQuery::HeadVars() const {
  std::set<std::string> vars;
  for (const auto& t : head_) {
    if (t.is_var()) vars.insert(t.var());
  }
  return vars;
}

std::set<std::string> ConjunctiveQuery::AllVars() const {
  std::set<std::string> vars = HeadVars();
  for (const auto& a : body_) {
    for (const auto& t : a.args) {
      if (t.is_var()) vars.insert(t.var());
    }
  }
  return vars;
}

std::set<std::string> ConjunctiveQuery::ExistentialVars() const {
  std::set<std::string> head = HeadVars();
  std::set<std::string> out;
  for (const auto& a : body_) {
    for (const auto& t : a.args) {
      if (t.is_var() && head.count(t.var()) == 0) out.insert(t.var());
    }
  }
  return out;
}

bool ConjunctiveQuery::IsSafe() const {
  std::set<std::string> body_vars;
  for (const auto& a : body_) {
    for (const auto& t : a.args) {
      if (t.is_var()) body_vars.insert(t.var());
    }
  }
  for (const auto& v : HeadVars()) {
    if (body_vars.count(v) == 0) return false;
  }
  return true;
}

ConjunctiveQuery ConjunctiveQuery::RenameVars(
    const std::string& prefix) const {
  Substitution sub;
  for (const auto& v : AllVars()) sub[v] = QTerm::Var(prefix + v);
  return Substitute(sub);
}

ConjunctiveQuery ConjunctiveQuery::Substitute(const Substitution& sub) const {
  std::vector<QTerm> head;
  head.reserve(head_.size());
  for (const auto& t : head_) head.push_back(Apply(sub, t));
  return ConjunctiveQuery(name_, std::move(head), Apply(sub, body_));
}

CanonicalizedQuery Canonicalize(const ConjunctiveQuery& query) {
  Substitution rename;
  int counter = 0;
  auto note = [&](const QTerm& t) {
    if (t.is_var() && rename.count(t.var()) == 0) {
      rename[t.var()] = QTerm::Var(Numbered("V", counter++));
    }
  };
  for (const auto& t : query.head()) note(t);
  for (const auto& a : query.body()) {
    for (const auto& t : a.args) note(t);
  }
  CanonicalizedQuery out;
  out.query = query.Substitute(rename);
  out.text = out.query.ToString();
  return out;
}

bool AlphaEquivalent(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  return Canonicalize(a).text == Canonicalize(b).text;
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = HeadAtom().ToString();
  if (!body_.empty()) {
    out += " :- ";
    for (size_t i = 0; i < body_.size(); ++i) {
      if (i > 0) out += ", ";
      out += body_[i].ToString();
    }
  }
  return out;
}

bool MatchAtom(const Atom& a, const Atom& b, Substitution* sub) {
  if (a.relation != b.relation || a.args.size() != b.args.size()) {
    return false;
  }
  Substitution local = *sub;
  for (size_t i = 0; i < a.args.size(); ++i) {
    QTerm at = Apply(local, a.args[i]);
    const QTerm& bt = b.args[i];
    if (at.is_var()) {
      local[at.var()] = bt;
    } else if (!(at == bt)) {
      return false;
    }
  }
  *sub = std::move(local);
  return true;
}

}  // namespace revere::query
