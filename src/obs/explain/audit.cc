#include "obs/explain/audit.h"

#include <cinttypes>

#include "common/string_util.h"

namespace dd {

namespace {

std::string LevelsToJson(const obs::ExplainLevels& levels) {
  std::string out = "[";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", levels[i]);
  }
  out += "]";
  return out;
}

std::string LevelsToText(const Levels& levels) {
  std::string out = "<";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", levels[i]);
  }
  out += ">";
  return out;
}

// Full-precision double: round-trips exactly, so the audit's winner
// decomposition can be compared to the run report byte-for-byte.
std::string Full(double v) { return StrFormat("%.17g", v); }

std::string PatternToJson(const DeterminedPattern& p) {
  // Pairs of append (not "literal" + temporary) sidestep a GCC 12
  // -Wrestrict false positive (PR105329).
  std::string out = "{";
  out += "\"lhs\": ";
  out += LevelsToJson(p.pattern.lhs);
  out += ", \"rhs\": ";
  out += LevelsToJson(p.pattern.rhs);
  out += StrFormat(", \"lhs_count\": %" PRIu64, p.measures.lhs_count);
  out += StrFormat(", \"xy_count\": %" PRIu64, p.measures.xy_count);
  out += ", \"d\": ";
  out += Full(p.measures.d);
  out += ", \"confidence\": ";
  out += Full(p.measures.confidence);
  out += ", \"quality\": ";
  out += Full(p.measures.quality);
  out += ", \"support\": ";
  out += Full(p.measures.support);
  out += ", \"utility\": ";
  out += Full(p.utility);
  out += "}";
  return out;
}

std::string AttrListToJson(const std::vector<std::string>& attrs) {
  std::string out = "[";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    // Sequential appends sidestep a GCC 12 -Wrestrict false positive
    // (PR105329) on "literal" + std::string.
    out += '"';
    out += JsonEscape(attrs[i]);
    out += '"';
  }
  out += "]";
  return out;
}

}  // namespace

obs::ExplainLevels DecodeRhsLevels(std::uint32_t rhs_index, std::size_t dims,
                                   int dmax) {
  obs::ExplainLevels levels(dims, 0);
  const std::uint32_t base = static_cast<std::uint32_t>(dmax) + 1;
  std::uint32_t v = rhs_index;
  for (std::size_t d = 0; d < dims; ++d) {
    levels[d] = static_cast<int>(v % base);
    v /= base;
  }
  return levels;
}

std::string ExplainAuditToJson(const obs::ExplainSnapshot& snapshot,
                               const DetermineResult& result,
                               const RuleSpec& rule,
                               const UtilityOptions& utility) {
  const obs::ExplainWaterfall& w = snapshot.waterfall;
  std::string out = "{\n";
  out += "  \"name\": \"determination_explain\",\n";
  out += "  \"run\": \"";
  out += JsonEscape(snapshot.run_label);
  out += "\",\n";
  out += StrFormat("  \"estimated\": %s,\n",
                   snapshot.estimated ? "true" : "false");
  out += "  \"rule\": {\"lhs\": ";
  out += AttrListToJson(rule.lhs);
  out += ", \"rhs\": ";
  out += AttrListToJson(rule.rhs);
  out += "},\n";
  out += StrFormat(
      "  \"config\": {\"sample_every\": %zu, \"ring_capacity\": %zu},\n",
      snapshot.config.sample_every, snapshot.config.ring_capacity);
  out += StrFormat("  \"lattice\": {\"rhs_dims\": %zu, \"dmax\": %d},\n",
                   snapshot.rhs_dims, snapshot.dmax);
  out += StrFormat(
      "  \"waterfall\": {\"lhs_seen\": %" PRIu64 ", \"lhs_bounded_out\": %"
      PRIu64 ", \"lhs_skipped\": %" PRIu64 ", \"candidates\": %" PRIu64
      ", \"evaluated\": %" PRIu64 ", \"pruned_s0\": %" PRIu64
      ", \"pruned_s1\": %" PRIu64 ", \"pruned_zero_conf\": %" PRIu64
      ", \"offered\": %" PRIu64 ", \"answers\": %zu, \"accounted\": %s},\n",
      w.lhs_seen, w.lhs_bounded_out, w.lhs_skipped, w.candidates,
      w.evaluated, w.pruned_s0, w.pruned_s1, w.pruned_zero_conf, w.offered,
      result.patterns.size(), w.Accounted() ? "true" : "false");
  out += StrFormat(
      "  \"recorder\": {\"recorded\": %" PRIu64 ", \"sampled_out\": %" PRIu64
      ", \"dropped\": %" PRIu64 "},\n",
      snapshot.recorded, snapshot.sampled_out, snapshot.dropped);
  out += "  \"prior_mean_cq\": ";
  out += Full(result.prior_mean_cq);
  out += ",\n";
  out += StrFormat("  \"prior_strength\": %s,\n",
                   Full(utility.prior_strength).c_str());

  if (!result.patterns.empty()) {
    out += "  \"winner\": ";
    out += PatternToJson(result.patterns[0]);
    out += ",\n";
  } else {
    out += "  \"winner\": null,\n";
  }
  if (result.patterns.size() > 1) {
    out += "  \"runner_up\": ";
    out += PatternToJson(result.patterns[1]);
    out += ",\n";
    const DeterminedPattern& a = result.patterns[0];
    const DeterminedPattern& b = result.patterns[1];
    out += StrFormat(
        "  \"why\": \"winner leads runner-up by %s utility "
        "(dD=%s, dC=%s, dQ=%s)\",\n",
        Full(a.utility - b.utility).c_str(),
        Full(a.measures.d - b.measures.d).c_str(),
        Full(a.measures.confidence - b.measures.confidence).c_str(),
        Full(a.measures.quality - b.measures.quality).c_str());
  } else {
    out += "  \"runner_up\": null,\n";
    out += result.patterns.empty()
               ? "  \"why\": \"no candidate exceeded the bound\",\n"
               : "  \"why\": \"single answer; no runner-up to compare\",\n";
  }

  out += "  \"lhs\": [\n";
  for (std::size_t i = 0; i < snapshot.lhs.size(); ++i) {
    const obs::ExplainLhsInfo& info = snapshot.lhs[i];
    out += StrFormat(
        "    {\"seq\": %u, \"levels\": %s, \"count\": %" PRIu64
        ", \"total\": %" PRIu64 ", \"initial_bound\": %s, \"bound_kind\": "
        "\"%s\"}%s\n",
        info.seq, LevelsToJson(info.levels).c_str(), info.lhs_count,
        info.total, Full(info.initial_bound).c_str(),
        obs::ExplainBoundName(info.initial_kind),
        i + 1 < snapshot.lhs.size() ? "," : "");
  }
  out += "  ],\n";

  out += "  \"events\": [\n";
  for (std::size_t i = 0; i < snapshot.events.size(); ++i) {
    const obs::ExplainEvent& e = snapshot.events[i];
    const obs::ExplainLevels rhs_levels =
        DecodeRhsLevels(e.rhs_index, snapshot.rhs_dims, snapshot.dmax);
    out += StrFormat(
        "    {\"seq\": %" PRIu64 ", \"lhs_seq\": %u, \"rhs\": %s, "
        "\"rank\": %u, \"outcome\": \"%s\", \"bound_kind\": \"%s\", "
        "\"offered\": %s, \"forced\": %s",
        e.seq, e.lhs_seq, LevelsToJson(rhs_levels).c_str(), e.rank,
        obs::ExplainOutcomeName(e.outcome), obs::ExplainBoundName(e.bound_kind),
        e.offered ? "true" : "false", e.forced ? "true" : "false");
    if (e.outcome == obs::ExplainOutcome::kEvaluated) {
      out += StrFormat(
          ", \"xy_count\": %" PRIu64
          ", \"confidence\": %s, \"quality\": %s, \"cq\": %s",
          e.xy_count, Full(e.confidence).c_str(), Full(e.quality).c_str(),
          Full(e.cq).c_str());
      if (e.eval_ns > 0.0) {
        out += StrFormat(", \"eval_ns\": %s", Full(e.eval_ns).c_str());
      }
    }
    out += StrFormat(", \"bound\": %s}%s\n", Full(e.bound).c_str(),
                     i + 1 < snapshot.events.size() ? "," : "");
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string PruningWaterfallToText(const obs::ExplainSnapshot& snapshot,
                                   const DetermineResult& result) {
  const obs::ExplainWaterfall& w = snapshot.waterfall;
  std::string out;
  out += "Pruning waterfall";
  if (!snapshot.run_label.empty()) {
    out += " (";
    out += snapshot.run_label;
    out += ")";
  }
  if (snapshot.estimated) out += " [estimated counts]";
  out += "\n";
  out += StrFormat("  %-30s %12s %12s\n", "stage", "count", "remaining");
  std::uint64_t remaining = w.candidates;
  out += StrFormat("  %-30s %12" PRIu64 " %12" PRIu64 "\n", "candidates",
                   w.candidates, remaining);
  remaining -= w.pruned_s0;
  out += StrFormat("  %-30s %12" PRIu64 " %12" PRIu64 "\n",
                   "- pruned by S0 (Prop. 1)", w.pruned_s0, remaining);
  remaining -= w.pruned_s1;
  out += StrFormat("  %-30s %12" PRIu64 " %12" PRIu64 "\n",
                   "- pruned by S1 (Prop. 2)", w.pruned_s1, remaining);
  remaining -= w.pruned_zero_conf;
  out += StrFormat("  %-30s %12" PRIu64 " %12" PRIu64 "\n",
                   "- pruned (zero confidence)", w.pruned_zero_conf, remaining);
  out += StrFormat("  %-30s %12" PRIu64 "\n", "= evaluated", w.evaluated);
  out += StrFormat("  %-30s %12" PRIu64 "\n", "entered top-l heap", w.offered);
  out += StrFormat("  %-30s %12zu\n", "answers returned",
                   result.patterns.size());
  out += StrFormat("  LHS searched: %" PRIu64 " (bounded out: %" PRIu64
                   "); skipped by the utility bound: %" PRIu64 "\n",
                   w.lhs_seen, w.lhs_bounded_out, w.lhs_skipped);
  if (!w.Accounted()) {
    out += StrFormat("  WARNING: accounting mismatch: evaluated + pruned = %"
                     PRIu64 " != candidates = %" PRIu64 "\n",
                     w.evaluated + w.Pruned(), w.candidates);
  }
  return out;
}

std::string WhyChosenToText(const DetermineResult& result) {
  std::string out;
  if (result.patterns.empty()) {
    return "Why this ϕ: no pattern was determined (every candidate was "
           "bounded out).\n";
  }
  const DeterminedPattern& a = result.patterns[0];
  out += "Why this ϕ:\n";
  out += StrFormat("  winner     lhs=%s rhs=%s\n",
                   LevelsToText(a.pattern.lhs).c_str(),
                   LevelsToText(a.pattern.rhs).c_str());
  if (result.patterns.size() < 2) {
    out += StrFormat(
        "  utility %.6f; single answer, no runner-up to compare.\n",
        a.utility);
    return out;
  }
  const DeterminedPattern& b = result.patterns[1];
  out += StrFormat("  runner-up  lhs=%s rhs=%s\n",
                   LevelsToText(b.pattern.lhs).c_str(),
                   LevelsToText(b.pattern.rhs).c_str());
  out += StrFormat("  %-10s %12s %12s %12s\n", "measure", "winner",
                   "runner-up", "delta");
  const auto row = [&](const char* name, double x, double y) {
    out += StrFormat("  %-10s %12.6f %12.6f %+12.6f\n", name, x, y, x - y);
  };
  row("D", a.measures.d, b.measures.d);
  row("C", a.measures.confidence, b.measures.confidence);
  row("Q", a.measures.quality, b.measures.quality);
  row("S", a.measures.support, b.measures.support);
  row("utility", a.utility, b.utility);
  return out;
}

namespace {

// Shared row iteration for both landscape formats: calls `emit` once
// per retained evaluated event with its coordinates and utility.
template <typename Emit>
void ForEachLandscapeRow(const obs::ExplainSnapshot& snapshot,
                         const UtilityOptions& utility, double prior_mean_cq,
                         Emit&& emit) {
  UtilityOptions u = utility;
  u.prior_mean_cq = prior_mean_cq;
  for (const obs::ExplainEvent& e : snapshot.events) {
    if (e.outcome != obs::ExplainOutcome::kEvaluated) continue;
    if (e.lhs_seq >= snapshot.lhs.size()) continue;
    const obs::ExplainLhsInfo& info = snapshot.lhs[e.lhs_seq];
    const obs::ExplainLevels rhs =
        DecodeRhsLevels(e.rhs_index, snapshot.rhs_dims, snapshot.dmax);
    const double d =
        info.total > 0 ? static_cast<double>(info.lhs_count) /
                             static_cast<double>(info.total)
                       : 0.0;
    const double uu = ExpectedUtility(info.total, info.lhs_count,
                                      e.confidence, e.quality, u);
    emit(info.levels, rhs, d, e, uu);
  }
}

}  // namespace

std::string LandscapeToCsv(const obs::ExplainSnapshot& snapshot,
                           const RuleSpec& rule,
                           const UtilityOptions& utility,
                           double prior_mean_cq) {
  std::string out;
  for (const std::string& attr : rule.lhs) out += "lhs_" + attr + ",";
  for (const std::string& attr : rule.rhs) out += "rhs_" + attr + ",";
  out += "d,confidence,quality,cq,utility\n";
  ForEachLandscapeRow(
      snapshot, utility, prior_mean_cq,
      [&](const obs::ExplainLevels& lhs, const obs::ExplainLevels& rhs,
          double d, const obs::ExplainEvent& e, double uu) {
        for (std::size_t i = 0; i < rule.lhs.size(); ++i) {
          out += StrFormat("%d,", i < lhs.size() ? lhs[i] : -1);
        }
        for (std::size_t i = 0; i < rule.rhs.size(); ++i) {
          out += StrFormat("%d,", i < rhs.size() ? rhs[i] : -1);
        }
        out += StrFormat("%.10g,%.10g,%.10g,%.10g,%.10g\n", d, e.confidence,
                         e.quality, e.cq, uu);
      });
  return out;
}

std::string LandscapeToJsonl(const obs::ExplainSnapshot& snapshot,
                             const RuleSpec& rule,
                             const UtilityOptions& utility,
                             double prior_mean_cq) {
  (void)rule;
  std::string out;
  ForEachLandscapeRow(
      snapshot, utility, prior_mean_cq,
      [&](const obs::ExplainLevels& lhs, const obs::ExplainLevels& rhs,
          double d, const obs::ExplainEvent& e, double uu) {
        out += StrFormat(
            "{\"lhs\": %s, \"rhs\": %s, \"d\": %.10g, \"confidence\": %.10g, "
            "\"quality\": %.10g, \"cq\": %.10g, \"utility\": %.10g}\n",
            LevelsToJson(lhs).c_str(), LevelsToJson(rhs).c_str(), d,
            e.confidence, e.quality, e.cq, uu);
      });
  return out;
}

}  // namespace dd
