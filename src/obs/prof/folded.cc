#include "obs/prof/folded.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "common/string_util.h"
#include "obs/diag/symbolize.h"

namespace dd::obs::prof {

namespace {

// Frames the profiler's own signal machinery contributes to every
// sample; trimmed during folding so the leaf is the interrupted PC.
bool IsHandlerFrame(const std::string& symbol) {
  return symbol.find("CaptureOwnStack") != std::string::npos ||
         symbol.find("DdProfSigprofHandler") != std::string::npos;
}

// Folded lines use ';' as the frame separator and the last ' ' before
// the count; symbols keep their spaces (template arguments), so only
// ';' and line breaks must go.
std::string SanitizeSymbol(std::string symbol) {
  for (char& ch : symbol) {
    if (ch == ';') ch = ':';
    if (ch == '\n' || ch == '\r') ch = ' ';
  }
  return symbol;
}

std::string HexFrame(std::uintptr_t pc) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

void AppendJsonString(std::string* out, const std::string& text) {
  *out += '"';
  *out += JsonEscape(text);
  *out += '"';
}

std::vector<std::string> SplitFrames(const std::string& key) {
  std::vector<std::string> frames;
  std::size_t begin = 0;
  while (begin <= key.size()) {
    const std::size_t semi = key.find(';', begin);
    if (semi == std::string::npos) {
      frames.push_back(key.substr(begin));
      break;
    }
    frames.push_back(key.substr(begin, semi - begin));
    begin = semi + 1;
  }
  return frames;
}

bool IsAttributionFrame(const std::string& frame) {
  return frame.rfind("span:", 0) == 0 || frame.rfind("phase:", 0) == 0;
}

// name -> (self, total) accumulation shared by the table, diff, and
// JSON renderers.
struct FunctionTally {
  std::uint64_t self = 0;
  std::uint64_t total = 0;
};

std::vector<HotFunction> SortTally(
    std::unordered_map<std::string, FunctionTally> tally) {
  std::vector<HotFunction> functions;
  functions.reserve(tally.size());
  for (auto& [name, counts] : tally) {
    functions.push_back(HotFunction{name, counts.self, counts.total});
  }
  std::sort(functions.begin(), functions.end(),
            [](const HotFunction& a, const HotFunction& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.name < b.name;
            });
  return functions;
}

// Per-attribution (span:/phase: root frame) sample counts of a folded
// profile, keyed by the frame's label.
std::map<std::string, std::uint64_t> AttributionCounts(
    const FoldedProfile& folded, const char* prefix) {
  std::map<std::string, std::uint64_t> counts;
  const std::size_t prefix_len = std::char_traits<char>::length(prefix);
  for (const auto& [key, hits] : folded.stacks) {
    for (const std::string& frame : SplitFrames(key)) {
      if (!IsAttributionFrame(frame)) break;
      if (frame.rfind(prefix, 0) == 0) {
        counts[frame.substr(prefix_len)] += hits;
        break;
      }
    }
  }
  return counts;
}

void AppendCountsObject(std::string* out,
                        const std::map<std::string, std::uint64_t>& counts) {
  *out += '{';
  bool first = true;
  for (const auto& [name, hits] : counts) {
    if (!first) *out += ',';
    first = false;
    AppendJsonString(out, name);
    *out += ':';
    *out += std::to_string(hits);
  }
  *out += '}';
}

void AppendFunctionsArray(std::string* out,
                          const std::vector<HotFunction>& functions,
                          std::size_t top_n) {
  *out += '[';
  const std::size_t shown = std::min(top_n, functions.size());
  for (std::size_t i = 0; i < shown; ++i) {
    if (i != 0) *out += ',';
    *out += "{\"name\":";
    AppendJsonString(out, functions[i].name);
    *out += ",\"self\":";
    *out += std::to_string(functions[i].self);
    *out += ",\"total\":";
    *out += std::to_string(functions[i].total);
    *out += '}';
  }
  *out += ']';
}

double Percent(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

}  // namespace

std::uint64_t FoldedProfile::TotalSamples() const {
  std::uint64_t total = 0;
  for (const auto& [key, hits] : stacks) total += hits;
  return total;
}

FoldedProfile FoldProfile(const Profile& profile) {
  FoldedProfile folded;
  // dladdr cannot name local symbols (anonymous-namespace functions,
  // lambdas); those fall back to "<module>+0x<offset>", which — unlike
  // a raw address — is stable across runs and ASLR, so profiles stay
  // diffable.
  const std::vector<diag::DiagModule> own_modules = diag::SelfModules();
  std::map<std::string, std::uint64_t> bias_cache;
  const auto fallback_frame = [&own_modules,
                               &bias_cache](std::uintptr_t pc) -> std::string {
    const diag::DiagModule* mod = diag::FindModule(own_modules, pc);
    if (mod == nullptr || mod->path.empty()) return HexFrame(pc);
    auto [it, inserted] = bias_cache.try_emplace(mod->path);
    if (inserted) it->second = diag::ModuleBias(own_modules, mod->path);
    const std::size_t slash = mod->path.rfind('/');
    std::string out =
        slash == std::string::npos ? mod->path : mod->path.substr(slash + 1);
    out += '+';
    out += HexFrame(pc - it->second);
    return out;
  };
  // Symbolization is the expensive part; identical PCs across stacks
  // resolve once.
  std::unordered_map<std::uintptr_t, std::string> symbol_cache;
  const auto symbolize = [&symbol_cache, &fallback_frame](
                             std::uintptr_t pc,
                             bool leaf) -> const std::string& {
    // Frames above the leaf are return addresses: the interesting
    // instruction (the call) is the one before, so resolve at pc-1.
    const std::uintptr_t addr = leaf ? pc : pc - 1;
    auto [it, inserted] = symbol_cache.try_emplace(addr);
    if (inserted) {
      std::string symbol =
          diag::SymbolForAddress(reinterpret_cast<const void*>(addr));
      it->second = symbol.empty() ? fallback_frame(pc)
                                  : SanitizeSymbol(std::move(symbol));
    }
    return it->second;
  };

  for (const ProfileEntry& entry : profile.entries) {
    // Trim the handler's own frames off the leaf end: CaptureOwnStack
    // and SigprofHandler by name, then the one kernel sigreturn
    // trampoline frame between the handler and the interrupted PC.
    // Unresolvable symbols leave the trim at 0 — cosmetic only.
    std::size_t skip = 0;
    while (skip < entry.frames.size() &&
           IsHandlerFrame(symbolize(entry.frames[skip], skip == 0))) {
      ++skip;
    }
    if (skip > 0 && skip < entry.frames.size()) ++skip;

    std::string key = "span:";
    key += entry.span.empty() ? "-" : entry.span;
    key += ";phase:";
    key += entry.phase.empty() ? "-" : entry.phase;
    for (std::size_t i = entry.frames.size(); i > skip; --i) {
      key += ';';
      key += symbolize(entry.frames[i - 1], /*leaf=*/i - 1 == skip && skip == 0);
    }
    folded.stacks[key] += entry.count;
  }
  return folded;
}

std::string FoldedToString(const FoldedProfile& folded) {
  std::string out;
  for (const auto& [key, hits] : folded.stacks) {
    out += key;
    out += ' ';
    out += std::to_string(hits);
    out += '\n';
  }
  return out;
}

Status ParseFolded(const std::string& text, FoldedProfile* out) {
  std::size_t line_no = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    std::string line = text.substr(begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    begin = end + 1;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 == line.size()) {
      return Status::InvalidArgument("folded line " + std::to_string(line_no) +
                                     ": expected '<stack> <count>'");
    }
    char* parse_end = nullptr;
    const unsigned long long count =
        std::strtoull(line.c_str() + space + 1, &parse_end, 10);
    if (parse_end == nullptr || *parse_end != '\0') {
      return Status::InvalidArgument("folded line " + std::to_string(line_no) +
                                     ": bad sample count '" +
                                     line.substr(space + 1) + "'");
    }
    out->stacks[line.substr(0, space)] += count;
  }
  return Status::Ok();
}

FoldedProfile MergeFolded(const std::vector<FoldedProfile>& inputs) {
  FoldedProfile merged;
  for (const FoldedProfile& input : inputs) {
    for (const auto& [key, hits] : input.stacks) {
      merged.stacks[key] += hits;
    }
  }
  return merged;
}

std::vector<HotFunction> HotFunctions(const FoldedProfile& folded) {
  std::unordered_map<std::string, FunctionTally> tally;
  std::vector<const std::string*> seen;  // per-stack dedupe scratch
  for (const auto& [key, hits] : folded.stacks) {
    const std::vector<std::string> frames = SplitFrames(key);
    seen.clear();
    const std::string* leaf = nullptr;
    for (const std::string& frame : frames) {
      if (frame.empty() || IsAttributionFrame(frame)) continue;
      leaf = &frame;  // frames are root-first; the last one wins
      bool counted = false;
      for (const std::string* prior : seen) {
        if (*prior == frame) {
          counted = true;
          break;
        }
      }
      if (!counted) {
        seen.push_back(&frame);
        tally[frame].total += hits;
      }
    }
    if (leaf != nullptr) tally[*leaf].self += hits;
  }
  return SortTally(std::move(tally));
}

std::string TopTableToText(const FoldedProfile& folded, std::size_t top_n) {
  const std::vector<HotFunction> functions = HotFunctions(folded);
  const std::uint64_t total = folded.TotalSamples();
  std::string out = std::to_string(total) + " samples, " +
                    std::to_string(folded.stacks.size()) +
                    " unique stacks\n";
  char line[512];
  std::snprintf(line, sizeof(line), "%10s %7s %10s %7s  %s\n", "SELF", "SELF%",
                "TOTAL", "TOTAL%", "FUNCTION");
  out += line;
  const std::size_t shown = std::min(top_n, functions.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const HotFunction& fn = functions[i];
    std::snprintf(line, sizeof(line), "%10llu %6.2f%% %10llu %6.2f%%  ",
                  static_cast<unsigned long long>(fn.self),
                  Percent(fn.self, total),
                  static_cast<unsigned long long>(fn.total),
                  Percent(fn.total, total));
    out += line;
    out += fn.name;
    out += '\n';
  }
  return out;
}

std::string DiffToText(const FoldedProfile& before, const FoldedProfile& after,
                       std::size_t top_n) {
  std::unordered_map<std::string, FunctionTally> tally;
  for (const HotFunction& fn : HotFunctions(before)) {
    tally[fn.name].self = fn.self;
  }
  for (const HotFunction& fn : HotFunctions(after)) {
    tally[fn.name].total = fn.self;  // total column reused as "after"
  }
  struct Row {
    std::string name;
    std::uint64_t before = 0;
    std::uint64_t after = 0;
  };
  std::vector<Row> rows;
  rows.reserve(tally.size());
  for (auto& [name, counts] : tally) {
    rows.push_back(Row{name, counts.self, counts.total});
  }
  const auto delta = [](const Row& row) {
    return row.after >= row.before ? row.after - row.before
                                   : row.before - row.after;
  };
  std::sort(rows.begin(), rows.end(), [&delta](const Row& a, const Row& b) {
    if (delta(a) != delta(b)) return delta(a) > delta(b);
    return a.name < b.name;
  });
  const std::uint64_t total_before = before.TotalSamples();
  const std::uint64_t total_after = after.TotalSamples();
  std::string out = "before: " + std::to_string(total_before) +
                    " samples, after: " + std::to_string(total_after) +
                    " samples (self counts)\n";
  char line[512];
  std::snprintf(line, sizeof(line), "%10s %10s %10s  %s\n", "BEFORE", "AFTER",
                "DELTA", "FUNCTION");
  out += line;
  const std::size_t shown = std::min(top_n, rows.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const Row& row = rows[i];
    const long long signed_delta = static_cast<long long>(row.after) -
                                   static_cast<long long>(row.before);
    std::snprintf(line, sizeof(line), "%10llu %10llu %+10lld  ",
                  static_cast<unsigned long long>(row.before),
                  static_cast<unsigned long long>(row.after), signed_delta);
    out += line;
    out += row.name;
    out += '\n';
  }
  return out;
}

std::string FoldedSummaryJson(const FoldedProfile& folded, std::size_t top_n) {
  std::string out = "{\"samples\":";
  out += std::to_string(folded.TotalSamples());
  out += ",\"stacks\":";
  out += std::to_string(folded.stacks.size());
  out += ",\"spans\":";
  AppendCountsObject(&out, AttributionCounts(folded, "span:"));
  out += ",\"phases\":";
  AppendCountsObject(&out, AttributionCounts(folded, "phase:"));
  out += ",\"functions\":";
  AppendFunctionsArray(&out, HotFunctions(folded), top_n);
  out += '}';
  return out;
}

std::string ProfileSummaryJson(const Profile& profile) {
  std::map<std::string, std::uint64_t> spans;
  std::map<std::string, std::uint64_t> phases;
  for (const ProfileEntry& entry : profile.entries) {
    spans[entry.span.empty() ? "-" : entry.span] += entry.count;
    phases[entry.phase.empty() ? "-" : entry.phase] += entry.count;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(profile.duration_ns) * 1e-9);
  std::string out = "{\"hz\":";
  out += std::to_string(profile.hz);
  out += ",\"duration_seconds\":";
  out += buf;
  out += ",\"samples\":";
  out += std::to_string(profile.samples);
  out += ",\"dropped\":";
  out += std::to_string(profile.dropped);
  out += ",\"truncated\":";
  out += std::to_string(profile.truncated);
  out += ",\"spans\":";
  AppendCountsObject(&out, spans);
  out += ",\"phases\":";
  AppendCountsObject(&out, phases);
  out += ",\"functions\":";
  AppendFunctionsArray(&out, HotFunctions(FoldProfile(profile)), 10);
  out += '}';
  return out;
}

}  // namespace dd::obs::prof
