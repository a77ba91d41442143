// Shared helpers for the dd test binaries.

#ifndef DD_TESTS_TEST_UTIL_H_
#define DD_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/pattern.h"
#include "core/rule.h"
#include "data/generators.h"
#include "matching/builder.h"
#include "matching/matching_relation.h"

namespace dd::testutil {

// A synthetic matching relation with explicit level columns — handy for
// exact-count assertions without running metrics.
inline MatchingRelation MakeMatching(
    std::vector<std::string> attrs, int dmax,
    const std::vector<std::vector<Level>>& rows) {
  MatchingRelation m(std::move(attrs), dmax);
  std::uint32_t next = 0;
  for (const auto& row : rows) {
    m.AddTuple(next, next + 1, row);
    next += 2;
  }
  return m;
}

// A pseudo-random matching relation for property tests.
inline MatchingRelation RandomMatching(std::size_t attrs, int dmax,
                                       std::size_t tuples,
                                       std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t a = 0; a < attrs; ++a) {
    // Sequential append sidesteps a GCC 12 -Wrestrict false positive
    // (PR105329) on "literal" + std::to_string(...).
    std::string name = "a";
    name += std::to_string(a);
    names.push_back(std::move(name));
  }
  MatchingRelation m(std::move(names), dmax);
  Rng rng(seed);
  std::vector<Level> levels(attrs);
  for (std::size_t t = 0; t < tuples; ++t) {
    for (auto& l : levels) {
      // Mildly correlated levels: column 0 drives the rest, so real
      // dependencies exist and confidences are non-trivial.
      l = static_cast<Level>(rng.NextBounded(static_cast<std::uint64_t>(dmax) + 1));
    }
    // Make later columns correlate with column 0 half of the time.
    for (std::size_t a = 1; a < attrs; ++a) {
      if (rng.NextBool(0.5)) {
        int v = static_cast<int>(levels[0]) +
                static_cast<int>(rng.NextBounded(3)) - 1;
        if (v < 0) v = 0;
        if (v > dmax) v = dmax;
        levels[a] = static_cast<Level>(v);
      }
    }
    m.AddTuple(static_cast<std::uint32_t>(2 * t),
               static_cast<std::uint32_t>(2 * t + 1), levels);
  }
  return m;
}

// The Hotel example matched over (Address -> Region), paper dd1 setting.
inline MatchingRelation HotelMatching(int dmax = 10) {
  GeneratedData hotel = HotelExample();
  MatchingOptions opts;
  opts.dmax = dmax;
  auto m = BuildMatchingRelation(hotel.relation, {"Address", "Region"}, opts);
  return std::move(m).value();
}

// The matching relation by its definition, for oracle tests: for each
// tuple pair, in order, metric->Distance on every attribute bucketed by
// BucketDistance — no cap, no interning, no level table.
inline MatchingRelation NaiveMatching(
    const Relation& relation, const std::vector<std::string>& attributes,
    const MatchingOptions& options,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  ResolvedMetrics resolved =
      ResolveMatchingMetrics(relation.schema(), attributes, options).value();
  MatchingRelation out(attributes, options.dmax);
  std::vector<Level> levels(attributes.size());
  for (const auto& [i, j] : pairs) {
    for (std::size_t a = 0; a < attributes.size(); ++a) {
      const std::size_t column = resolved.attr_idx[a];
      levels[a] = BucketDistance(
          resolved.metrics[a]->Distance(relation.at(i, column),
                                        relation.at(j, column)),
          resolved.scales[a], options.dmax);
    }
    out.AddTuple(i, j, levels);
  }
  return out;
}

// Which side of the rule a naive determination pins to equality.
enum class NaivePin {
  kNone,  // DD: every ϕ[X] × ϕ[Y] in C_X × C_Y
  kLhs,   // MFD: ϕ[X] = <0,...,0>, every ϕ[Y] in C_Y
  kRhs,   // MD: ϕ[Y] = <0,...,0>, every ϕ[X] in C_X
};

struct NaiveAnswer {
  Levels lhs;
  Levels rhs;
  std::uint64_t lhs_count = 0;
  std::uint64_t xy_count = 0;
  double utility = 0.0;
};

struct NaiveDetermination {
  // The top-l answers, descending Ū (ties in arbitrary order).
  std::vector<NaiveAnswer> answers;
  // Ū of every eligible candidate, descending.
  std::vector<double> utilities;

  // True when no other eligible candidate has exactly Ū = u, so the
  // pattern at that utility is determined.
  bool UtilityIsUnique(double u) const {
    return std::count(utilities.begin(), utilities.end(), u) == 1;
  }
};

// The determination by its definition, for oracle tests: enumerates the
// candidate lattice, counts each pattern straight from the level
// columns of M, and evaluates Ū with the closed form (k + a)/(n + a + b)
// of expected_utility.h at the given prior. DD and MFD keep the top-l
// by Ū among the candidates with C·Q > 0 (the searches only accept C·Q
// strictly above a bound >= 0). MD ranks every ϕ[X], C = 0 included,
// and drops answers with Ū <= 0.
inline NaiveDetermination NaiveDetermine(const MatchingRelation& m,
                                         const ResolvedRule& rule,
                                         std::size_t top_l,
                                         double prior_mean_cq,
                                         double prior_strength,
                                         NaivePin pin = NaivePin::kNone) {
  const int dmax = m.dmax();
  const std::uint64_t total = m.num_tuples();
  // Every Levels of {0..dmax}^dims, or only the all-zero one if pinned.
  auto lattice = [&](std::size_t dims, bool pinned) {
    std::vector<Levels> cells;
    Levels cursor(dims, 0);
    for (;;) {
      cells.push_back(cursor);
      if (pinned) break;
      std::size_t d = 0;
      while (d < dims && cursor[d] == dmax) cursor[d++] = 0;
      if (d == dims) break;
      ++cursor[d];
    }
    return cells;
  };
  auto satisfies = [&](std::size_t row, const std::vector<std::size_t>& cols,
                       const Levels& bounds) {
    for (std::size_t a = 0; a < cols.size(); ++a) {
      if (m.level(row, cols[a]) > bounds[a]) return false;
    }
    return true;
  };
  auto utility = [&](std::uint64_t n, double cq) {
    const double mu = std::clamp(prior_mean_cq, 0.0, 1.0);
    if (total == 0) return mu;
    if (prior_strength <= 0.0 && n == 0) return mu;
    const double k = cq * static_cast<double>(n);
    const double a = prior_strength * static_cast<double>(total) * mu;
    const double b = prior_strength * static_cast<double>(total) * (1.0 - mu);
    return (k + a) / (static_cast<double>(n) + a + b);
  };

  std::vector<NaiveAnswer> candidates;
  const std::vector<Levels> rhs_cells =
      lattice(rule.rhs.size(), pin == NaivePin::kRhs);
  for (const Levels& lhs : lattice(rule.lhs.size(), pin == NaivePin::kLhs)) {
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < total; ++r) {
      if (satisfies(r, rule.lhs, lhs)) rows.push_back(r);
    }
    for (const Levels& rhs : rhs_cells) {
      NaiveAnswer c;
      c.lhs = lhs;
      c.rhs = rhs;
      c.lhs_count = rows.size();
      for (std::size_t r : rows) c.xy_count += satisfies(r, rule.rhs, rhs);
      const double confidence =
          c.lhs_count > 0 ? static_cast<double>(c.xy_count) /
                                static_cast<double>(c.lhs_count)
                          : 0.0;
      long sum = 0;
      for (int level : rhs) sum += level;
      const double quality =
          1.0 - static_cast<double>(sum) /
                    (static_cast<double>(rhs.size()) * dmax);
      const double cq = confidence * quality;
      if (pin != NaivePin::kRhs && !(cq > 0.0)) continue;
      c.utility = utility(c.lhs_count, cq);
      candidates.push_back(std::move(c));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const NaiveAnswer& a, const NaiveAnswer& b) {
              return a.utility > b.utility;
            });
  NaiveDetermination out;
  for (const NaiveAnswer& c : candidates) out.utilities.push_back(c.utility);
  for (std::size_t i = 0; i < candidates.size() && i < top_l; ++i) {
    if (pin == NaivePin::kRhs && candidates[i].utility <= 0.0) break;
    out.answers.push_back(candidates[i]);
  }
  return out;
}

// Every pair (ids[a], ids[b]), a < b, in row-major triangular order.
inline std::vector<std::pair<std::uint32_t, std::uint32_t>> AllPairs(
    const std::vector<std::uint32_t>& ids) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t a = 0; a < ids.size(); ++a) {
    for (std::size_t b = a + 1; b < ids.size(); ++b) {
      pairs.emplace_back(ids[a], ids[b]);
    }
  }
  return pairs;
}

// True when every dictionary of the incremental builder `builder`
// (incr/incremental_builder.h) holds exactly the distinct values of its
// live tuples, each with one reference per tuple that carries it.
template <typename Builder>
bool DictionariesHoldLiveValues(const Builder& builder) {
  const std::vector<std::uint32_t> live = builder.store().LiveIds();
  for (std::size_t a = 0; a < builder.attributes().size(); ++a) {
    const std::size_t column =
        builder.store().schema().IndexOf(builder.attributes()[a]).value();
    std::map<std::string, std::uint32_t> expected;
    for (const std::uint32_t id : live) {
      ++expected[builder.store().row(id)[column]];
    }
    std::map<std::string, std::uint32_t> held;
    for (const auto& [value, refs] : builder.dictionary(a).Counts()) {
      held.emplace(value, refs);
    }
    if (held != expected) return false;
  }
  return true;
}

// Minimal JSON well-formedness checker (objects, arrays, strings,
// numbers, literals) — enough to catch unbalanced braces, missing
// commas and unescaped quotes in the hand-rolled exporters.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      SkipWs();
      if (!String()) return false;
      if (!Consume(':')) return false;
      if (!Value()) return false;
    } while (Consume(','));
    return Consume('}');
  }
  bool Array() {
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      if (!Value()) return false;
    } while (Consume(','));
    return Consume(']');
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // Skip the escaped character.
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }
  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(s_[pos_]))) digits = true;
      ++pos_;
    }
    return digits && pos_ > start;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace dd::testutil

#endif  // DD_TESTS_TEST_UTIL_H_
