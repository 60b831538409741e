#include "src/query/cover.h"

#include <algorithm>
#include <string>

namespace revere::query {

namespace {

// Variables are numbered per side in order of first occurrence (head,
// then body); a constant argument is numbered -1.
struct Numbered {
  std::vector<const std::string*> vars;
  std::vector<bool> in_head;
  std::vector<int> head;               // per head position
  std::vector<std::vector<int>> body;  // per body atom, per position

  explicit Numbered(const ConjunctiveQuery& q) {
    auto number = [this](const QTerm& t, bool head_term) {
      if (!t.is_var()) return -1;
      for (size_t i = 0; i < vars.size(); ++i) {
        if (*vars[i] == t.var()) return static_cast<int>(i);
      }
      vars.push_back(&t.var());
      in_head.push_back(head_term);
      return static_cast<int>(vars.size() - 1);
    };
    for (const QTerm& t : q.head()) head.push_back(number(t, true));
    body.reserve(q.body().size());
    for (const Atom& a : q.body()) {
      std::vector<int> ids;
      ids.reserve(a.args.size());
      for (const QTerm& t : a.args) ids.push_back(number(t, false));
      body.push_back(std::move(ids));
    }
  }
};

constexpr int kNotLanded = -2;
constexpr int kOnExported = -1;  // an exported view variable or a constant

// One partial cover: a union-find over the query's variables followed by
// the view's, each class holding at most one constant.
struct State {
  std::vector<int> parent;
  std::vector<const storage::Value*> constant;  // per class root
  std::vector<int> landed;  // per query variable: kNotLanded, kOnExported
                            // or the existential view variable's number
  std::vector<int> target;  // per query atom: its view atom, or -1
};

class CoverSearch {
 public:
  CoverSearch(const ConjunctiveQuery& query, size_t seed,
              const ConjunctiveQuery& view)
      : query_(query), view_(view), q_(query), v_(view), seed_(seed) {}

  std::vector<Cover> Run() {
    const size_t n = q_.vars.size() + v_.vars.size();
    State start;
    start.parent.resize(n);
    for (size_t i = 0; i < n; ++i) start.parent[i] = static_cast<int>(i);
    start.constant.assign(n, nullptr);
    start.landed.assign(q_.vars.size(), kNotLanded);
    start.target.assign(q_.body.size(), -1);
    for (size_t t = 0; t < view_.body().size(); ++t) {
      State s = start;
      if (Map(&s, seed_, t)) Extend(std::move(s));
    }
    return std::move(out_);
  }

 private:
  static int Find(State* s, int x) {
    while (s->parent[x] != x) x = s->parent[x] = s->parent[s->parent[x]];
    return x;
  }

  static bool BindConstant(State* s, int x, const storage::Value& c) {
    const storage::Value*& held = s->constant[Find(s, x)];
    if (held != nullptr) return *held == c;
    held = &c;
    return true;
  }

  static bool Union(State* s, int x, int y) {
    x = Find(s, x);
    y = Find(s, y);
    if (x == y) return true;
    s->parent[y] = x;
    if (s->constant[y] == nullptr) return true;
    return BindConstant(s, x, *s->constant[y]);
  }

  // Records that query variable `x` lands on `where` (kOnExported or an
  // existential's number): one existential, at every occurrence, and
  // never under a head variable.
  bool Land(State* s, int x, int where) const {
    int& landed = s->landed[x];
    if (landed == kNotLanded) {
      landed = where;
      return where < 0 || !q_.in_head[x];
    }
    return landed == where;
  }

  // Unifies query atom `a` with view atom `t` under the cover rules.
  bool Map(State* s, size_t a, size_t t) const {
    const Atom& qa = query_.body()[a];
    const Atom& va = view_.body()[t];
    if (qa.relation != va.relation || qa.args.size() != va.args.size()) {
      return false;
    }
    s->target[a] = static_cast<int>(t);
    const int nq = static_cast<int>(q_.vars.size());
    for (size_t p = 0; p < qa.args.size(); ++p) {
      const int x = q_.body[a][p];
      const int v = v_.body[t][p];
      if (v < 0) {  // a view constant
        const storage::Value& c = va.args[p].value();
        if (x < 0 ? qa.args[p].value() != c
                  : !Land(s, x, kOnExported) || !BindConstant(s, x, c)) {
          return false;
        }
      } else if (!v_.in_head[v]) {  // an existential
        if (x < 0 || !Land(s, x, v) || !Union(s, x, nq + v)) return false;
      } else if (x < 0 ? !BindConstant(s, nq + v, qa.args[p].value())
                       : !Land(s, x, kOnExported) || !Union(s, x, nq + v)) {
        return false;
      }
    }
    return true;
  }

  // Maps the first atom the cover must still take — one holding a
  // variable that landed on an existential — onto each view atom in
  // turn; a closed cover is emitted.
  void Extend(State s) {
    size_t next = 0;
    for (; next < q_.body.size(); ++next) {
      const std::vector<int>& xs = q_.body[next];
      if (s.target[next] < 0 && std::any_of(xs.begin(), xs.end(), [&](int x) {
            return x >= 0 && s.landed[x] >= 0;
          })) {
        break;
      }
    }
    if (next == q_.body.size()) return Emit(&s);
    if (next < seed_) return;  // the search seeded at `next` finds it
    for (size_t t = 0; t < view_.body().size(); ++t) {
      State branch = s;
      if (Map(&branch, next, t)) Extend(std::move(branch));
    }
  }

  // Each class's query-side representative is its first query variable.
  void Emit(State* s) {
    const int nq = static_cast<int>(q_.vars.size());
    std::vector<int> rep(s->parent.size(), -1);
    Cover cover;
    for (int x = 0; x < nq; ++x) {
      const int root = Find(s, x);
      if (rep[root] < 0) rep[root] = x;
      if (s->constant[root] != nullptr) {
        cover.binding[*q_.vars[x]] = QTerm::Const(*s->constant[root]);
      } else if (rep[root] != x) {
        cover.binding[*q_.vars[x]] = QTerm::Var(*q_.vars[rep[root]]);
      }
    }
    for (size_t a = 0; a < s->target.size(); ++a) {
      if (s->target[a] >= 0) cover.atoms.push_back(a);
    }
    cover.exported.reserve(v_.head.size());
    for (size_t j = 0; j < v_.head.size(); ++j) {
      if (v_.head[j] < 0) {
        cover.exported.emplace_back(view_.head()[j]);
        continue;
      }
      const int root = Find(s, nq + v_.head[j]);
      if (s->constant[root] != nullptr) {
        cover.exported.emplace_back(QTerm::Const(*s->constant[root]));
      } else if (rep[root] >= 0) {
        cover.exported.emplace_back(QTerm::Var(*q_.vars[rep[root]]));
      } else {
        cover.exported.emplace_back(std::nullopt);
      }
    }
    out_.push_back(std::move(cover));
  }

  const ConjunctiveQuery& query_;
  const ConjunctiveQuery& view_;
  const Numbered q_;
  const Numbered v_;
  const size_t seed_;
  std::vector<Cover> out_;
};

}  // namespace

std::vector<Cover> FindCovers(const ConjunctiveQuery& query, size_t seed,
                              const ConjunctiveQuery& view) {
  return CoverSearch(query, seed, view).Run();
}

}  // namespace revere::query
