#ifndef REVERE_QUERY_CQ_H_
#define REVERE_QUERY_CQ_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/storage/value.h"

namespace revere::query {

/// A term in a conjunctive query: a variable (named) or a constant.
class QTerm {
 public:
  static QTerm Var(std::string name);
  static QTerm Const(storage::Value value);
  /// Convenience for string constants.
  static QTerm Const(std::string value) {
    return Const(storage::Value(std::move(value)));
  }

  bool is_var() const { return is_var_; }
  const std::string& var() const { return var_; }
  const storage::Value& value() const { return value_; }

  bool operator==(const QTerm& other) const;
  bool operator!=(const QTerm& other) const { return !(*this == other); }
  bool operator<(const QTerm& other) const;

  /// Variables render as their name; constants as quoted literals.
  std::string ToString() const;

 private:
  bool is_var_ = false;
  std::string var_;
  storage::Value value_;
};

/// One subgoal: relation(t1, ..., tk).
struct Atom {
  std::string relation;
  std::vector<QTerm> args;

  bool operator==(const Atom& other) const {
    return relation == other.relation && args == other.args;
  }
  std::string ToString() const;
};

/// A variable-to-term substitution.
using Substitution = std::map<std::string, QTerm>;

/// Applies `sub` to a term / atom / atom list (unmapped variables pass
/// through unchanged).
QTerm Apply(const Substitution& sub, const QTerm& term);
Atom Apply(const Substitution& sub, const Atom& atom);
std::vector<Atom> Apply(const Substitution& sub,
                        const std::vector<Atom>& atoms);

/// A conjunctive query / view definition:
///   name(head) :- body_1, ..., body_n
/// Set semantics throughout (the PDMS reformulation theory assumes it).
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;
  ConjunctiveQuery(std::string name, std::vector<QTerm> head,
                   std::vector<Atom> body)
      : name_(std::move(name)),
        head_(std::move(head)),
        body_(std::move(body)) {}

  /// Parses datalog-ish text:
  ///   q(X, Y) :- course(X, T, D), teaches(X, Y), dept(D, "CSE")
  /// Identifiers starting with an upper-case letter are variables;
  /// quoted strings and numerals are constants.
  static Result<ConjunctiveQuery> Parse(std::string_view text);

  const std::string& name() const { return name_; }
  const std::vector<QTerm>& head() const { return head_; }
  const std::vector<Atom>& body() const { return body_; }

  /// The atom form of the head: name(head args).
  Atom HeadAtom() const { return Atom{name_, head_}; }

  /// Distinct variables appearing in the head / anywhere.
  std::set<std::string> HeadVars() const;
  std::set<std::string> AllVars() const;
  /// Variables in the body but not the head.
  std::set<std::string> ExistentialVars() const;

  /// Safety: every head variable occurs in some body atom.
  bool IsSafe() const;

  /// A copy with every variable renamed via `prefix` + old name; used to
  /// freshen view definitions apart before unification.
  ConjunctiveQuery RenameVars(const std::string& prefix) const;

  /// Applies a substitution to head and body.
  ConjunctiveQuery Substitute(const Substitution& sub) const;

  std::string ToString() const;

  bool operator==(const ConjunctiveQuery& other) const {
    return name_ == other.name_ && head_ == other.head_ &&
           body_ == other.body_;
  }

 private:
  std::string name_;
  std::vector<QTerm> head_;
  std::vector<Atom> body_;
};

/// A query in α-normal form: every variable renamed to "V0", "V1", ...
/// in order of first occurrence (head left to right, then body atoms in
/// order). Two queries are α-equivalent — identical up to a consistent
/// variable renaming, with atom order preserved — exactly when their
/// canonical `text` matches, so the canonical form is a sound cache key
/// for any computation that depends only on query syntax (reformulation
/// plans, containment verdicts).
struct CanonicalizedQuery {
  ConjunctiveQuery query;
  std::string text;
};

/// Computes the α-normal form of `query` (one substitution pass; the
/// input is not modified).
CanonicalizedQuery Canonicalize(const ConjunctiveQuery& query);

/// True when `a` and `b` are identical up to a consistent renaming of
/// variables (atom order matters; set-semantic equivalence is
/// `Equivalent` in containment.h).
bool AlphaEquivalent(const ConjunctiveQuery& a, const ConjunctiveQuery& b);

/// Unifies `a` into `b` one-directionally: finds a substitution on a's
/// variables making Apply(sub, a) == b position-wise. Constants in `a`
/// must match `b` exactly. Returns false when impossible. `sub` may hold
/// prior bindings that are respected and extended.
bool MatchAtom(const Atom& a, const Atom& b, Substitution* sub);

}  // namespace revere::query

#endif  // REVERE_QUERY_CQ_H_
