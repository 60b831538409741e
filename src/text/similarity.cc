#include "src/text/similarity.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/strings.h"
#include "src/text/stemmer.h"
#include "src/text/tokenizer.h"

namespace revere::text {

size_t EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& t : sa) {
    if (sb.count(t)) ++inter;
  }
  size_t uni = sa.size() + sb.size() - inter;
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double NGramSimilarity(std::string_view a, std::string_view b, size_t n) {
  auto grams = [n](std::string_view s) {
    std::vector<std::string> out;
    std::string padded = "^";
    padded += s;
    padded += '$';
    if (padded.size() < n) {
      out.push_back(padded);
      return out;
    }
    for (size_t i = 0; i + n <= padded.size(); ++i) {
      out.push_back(padded.substr(i, n));
    }
    return out;
  };
  return JaccardSimilarity(grams(a), grams(b));
}

namespace {

std::vector<std::string> NormalizedTokens(std::string_view name,
                                          const NameSimilarityOptions& opts) {
  std::vector<std::string> tokens = TokenizeIdentifier(name);
  for (auto& t : tokens) {
    if (opts.use_synonyms && opts.synonyms != nullptr) {
      t = opts.synonyms->Canonical(t);
    }
    if (opts.use_stemming) t = PorterStem(t);
  }
  return tokens;
}

}  // namespace

namespace {

// Similarity of two normalized tokens: exact match, or a conservative
// abbreviation signal when one is a prefix of the other ("dept" ~
// "department", "instr" ~ "instructor").
double TokenSimilarity(const std::string& a, const std::string& b) {
  if (a == b) return 1.0;
  const std::string& shorter = a.size() <= b.size() ? a : b;
  const std::string& longer = a.size() <= b.size() ? b : a;
  if (shorter.size() < 3) return 0.0;
  // Truncation: "instr" ~ "instructor".
  if (longer.compare(0, shorter.size(), shorter) == 0) return 0.85;
  // Contraction: "dept" ~ "department" — the shorter token must start
  // the longer one and read as an in-order subsequence of it.
  if (shorter.front() == longer.front() &&
      shorter.size() * 3 >= longer.size()) {
    size_t j = 0;
    for (char c : longer) {
      if (j < shorter.size() && shorter[j] == c) ++j;
    }
    if (j == shorter.size()) return 0.75;
  }
  return 0.0;
}

// Soft token-set overlap: each side's tokens greedily claim their best
// counterpart; the two directional averages are averaged. Degenerates
// to Jaccard-like behavior on exact tokens while crediting
// abbreviations.
double SoftTokenOverlap(const std::vector<std::string>& ta,
                        const std::vector<std::string>& tb) {
  if (ta.empty() || tb.empty()) return ta.empty() && tb.empty() ? 1.0 : 0.0;
  auto directional = [](const std::vector<std::string>& from,
                        const std::vector<std::string>& to) {
    double sum = 0.0;
    for (const auto& x : from) {
      double best = 0.0;
      for (const auto& y : to) best = std::max(best, TokenSimilarity(x, y));
      sum += best;
    }
    return sum / static_cast<double>(from.size());
  };
  return 0.5 * (directional(ta, tb) + directional(tb, ta));
}

}  // namespace

double NameSimilarity(std::string_view a, std::string_view b,
                      const NameSimilarityOptions& opts) {
  if (EqualsIgnoreCase(a, b)) return 1.0;
  std::vector<std::string> ta = NormalizedTokens(a, opts);
  std::vector<std::string> tb = NormalizedTokens(b, opts);
  if (!ta.empty() && ta == tb) return 1.0;
  // Also compare raw (unstemmed) tokens: stemming can destroy the
  // prefix relationship abbreviations rely on ("dept" vs "depart").
  double token_sim =
      std::max(SoftTokenOverlap(ta, tb),
               SoftTokenOverlap(TokenizeIdentifier(a), TokenizeIdentifier(b)));
  double gram_sim = NGramSimilarity(ToLower(a), ToLower(b));
  // Token overlap dominates (it carries the synonym/stemming/
  // abbreviation signal); n-grams rescue spellings that tokenization
  // can't align.
  return std::max(0.7 * token_sim + 0.3 * gram_sim, gram_sim * 0.9);
}

}  // namespace revere::text
