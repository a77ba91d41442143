#include "obs/diag/dump_reader.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/string_util.h"
#include "obs/diag/symbolize.h"

namespace dd::obs::diag {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

std::uint64_t ParseU64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

std::uint64_t ParseHex(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

std::vector<std::string> SplitWs(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

std::string FormatHex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::size_t DiagDump::TotalFrames() const {
  std::size_t n = 0;
  for (const DiagBacktrace& bt : backtraces) n += bt.frames.size();
  return n;
}

bool ParseDiagDump(const std::string& text, DiagDump* out,
                   std::string* error) {
  *out = DiagDump();
  const auto lines = SplitLines(text);
  if (lines.empty() || !StartsWith(lines[0], "DDDIAG ")) {
    if (error != nullptr) *error = "missing DDDIAG magic";
    return false;
  }
  out->version = std::atoi(lines[0].c_str() + 7);
  if (out->version != 1) {
    if (error != nullptr) {
      *error = "unsupported dump version " + std::to_string(out->version);
    }
    return false;
  }

  enum class Section {
    kHeader,
    kBacktrace,
    kFlightrec,
    kModules,
    kMetrics,
    kSkip,  // An unknown section, or past `--- end`: lines are ignored.
  };
  Section section = Section::kHeader;
  int current_tid = 0;

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (StartsWith(line, "--- ")) {
      const std::string rest = line.substr(4);
      if (StartsWith(rest, "backtrace tid ")) {
        section = Section::kBacktrace;
        DiagBacktrace bt;
        bt.tid = std::atoi(rest.c_str() + 14);
        out->backtraces.push_back(bt);
      } else if (StartsWith(rest, "flightrec tid ")) {
        section = Section::kFlightrec;
        current_tid = std::atoi(rest.c_str() + 14);
      } else if (rest == "modules") {
        section = Section::kModules;
      } else if (rest == "metrics") {
        section = Section::kMetrics;
      } else {
        // A section this reader does not know (say, one a newer writer
        // added, or the `--- heartbeats` an older one wrote) must not
        // be parsed as the one before it.
        if (rest == "end") out->complete = true;
        section = Section::kSkip;
      }
      continue;
    }

    switch (section) {
      case Section::kHeader: {
        const std::size_t colon = line.find(": ");
        if (colon == std::string::npos) break;
        const std::string key = line.substr(0, colon);
        const std::string value = line.substr(colon + 2);
        if (key == "reason") {
          out->reason = value;
        } else if (key == "signal") {
          const auto toks = SplitWs(value);
          if (!toks.empty()) out->signal = std::atoi(toks[0].c_str());
          if (toks.size() > 1) out->signal_name = toks[1];
        } else if (key == "fault_addr") {
          out->fault_addr = ParseHex(value);
        } else if (key == "pid") {
          out->pid = ParseU64(value);
        } else if (key == "tid") {
          out->tid = ParseU64(value);
        } else if (key == "uptime_ns") {
          out->uptime_ns = ParseU64(value);
        } else if (key == "rss_kb") {
          out->rss_kb = ParseU64(value);
        }
        break;
      }
      case Section::kBacktrace: {
        if (out->backtraces.empty()) break;
        if (StartsWith(line, "0x")) {
          DiagFrame frame;
          frame.pc = ParseHex(line);
          out->backtraces.back().frames.push_back(frame);
        }
        break;
      }
      case Section::kFlightrec: {
        const auto toks = SplitWs(line);
        if (toks.size() != 6) break;
        DiagFlightEvent ev;
        ev.tid = current_tid;
        ev.seq = ParseU64(toks[0]);
        ev.t_ns = ParseU64(toks[1]);
        ev.type = toks[2];
        ev.name = toks[3] == "-" ? "" : toks[3];
        ev.arg0 = ParseU64(toks[4]);
        ev.arg1 = ParseU64(toks[5]);
        out->flight_events.push_back(ev);
        break;
      }
      case Section::kModules: {
        DiagModule mod;
        if (ParseMapsLine(line, &mod)) out->modules.push_back(mod);
        break;
      }
      case Section::kMetrics:
        out->metrics_text += line;
        out->metrics_text += '\n';
        break;
      case Section::kSkip:
        break;
    }
  }
  return true;
}

void SymbolizeDump(DiagDump* dump) {
  const std::vector<DiagModule> own = SelfModules();
  for (DiagBacktrace& bt : dump->backtraces) {
    for (DiagFrame& frame : bt.frames) {
      SymbolizedPc sym = SymbolizePc(frame.pc, dump->modules, own);
      frame.module = std::move(sym.module);
      frame.module_offset = sym.module_offset;
      frame.symbol = std::move(sym.symbol);
    }
  }
}

std::string DiagDumpToText(const DiagDump& dump) {
  std::string out;
  out += "dump: reason=" + dump.reason;
  if (dump.signal != 0) {
    out += " signal=" + std::to_string(dump.signal) + " (" +
           dump.signal_name + ") fault_addr=" + FormatHex(dump.fault_addr);
  }
  out += "\n";
  out += "process: pid=" + std::to_string(dump.pid) +
         " tid=" + std::to_string(dump.tid) +
         " uptime_s=" + std::to_string(dump.uptime_ns / 1000000000ULL) +
         " rss_kb=" + std::to_string(dump.rss_kb) + "\n";
  out += dump.complete ? "status: complete\n"
                       : "status: TRUNCATED (no --- end marker)\n";

  for (const DiagBacktrace& bt : dump.backtraces) {
    out += "\nthread " + std::to_string(bt.tid) + ":\n";
    int idx = 0;
    for (const DiagFrame& frame : bt.frames) {
      out += "  #" + std::to_string(idx++) + " " + FormatHex(frame.pc);
      if (!frame.module.empty()) {
        out += " " + frame.module + "+" + FormatHex(frame.module_offset);
      }
      if (!frame.symbol.empty()) out += " " + frame.symbol;
      out += "\n";
    }
  }

  if (!dump.flight_events.empty()) {
    out += "\nflight recorder (" + std::to_string(dump.flight_events.size()) +
           " events):\n";
    for (const DiagFlightEvent& ev : dump.flight_events) {
      out += "  tid=" + std::to_string(ev.tid) +
             " seq=" + std::to_string(ev.seq) +
             " t_ns=" + std::to_string(ev.t_ns) + " " + ev.type;
      if (!ev.name.empty()) out += " " + ev.name;
      out += " arg0=" + std::to_string(ev.arg0) +
             " arg1=" + std::to_string(ev.arg1) + "\n";
    }
  }

  if (!dump.metrics_text.empty()) {
    out += "\nmetrics:\n";
    std::size_t pos = 0;
    while (pos < dump.metrics_text.size()) {
      std::size_t nl = dump.metrics_text.find('\n', pos);
      if (nl == std::string::npos) nl = dump.metrics_text.size();
      out += "  " + dump.metrics_text.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }

  out += "\nmodules: " + std::to_string(dump.modules.size()) +
         " mappings\n";
  return out;
}

std::string DiagDumpToJson(const DiagDump& dump) {
  std::string out = "{";
  out += "\"version\":" + std::to_string(dump.version);
  out += ",\"reason\":\"";
  out += JsonEscape(dump.reason);
  out += "\",\"signal\":" + std::to_string(dump.signal);
  out += ",\"signal_name\":\"";
  out += JsonEscape(dump.signal_name);
  out += "\",\"fault_addr\":\"" + FormatHex(dump.fault_addr) + "\"";
  out += ",\"pid\":" + std::to_string(dump.pid);
  out += ",\"tid\":" + std::to_string(dump.tid);
  out += ",\"uptime_ns\":" + std::to_string(dump.uptime_ns);
  out += ",\"rss_kb\":" + std::to_string(dump.rss_kb);
  out += ",\"complete\":" + std::string(dump.complete ? "true" : "false");

  out += ",\"backtraces\":[";
  for (std::size_t b = 0; b < dump.backtraces.size(); ++b) {
    const DiagBacktrace& bt = dump.backtraces[b];
    if (b != 0) out += ",";
    out += "{\"tid\":" + std::to_string(bt.tid) + ",\"frames\":[";
    for (std::size_t f = 0; f < bt.frames.size(); ++f) {
      const DiagFrame& frame = bt.frames[f];
      if (f != 0) out += ",";
      out += "{\"pc\":\"" + FormatHex(frame.pc) + "\"";
      if (!frame.module.empty()) {
        out += ",\"module\":\"";
        out += JsonEscape(frame.module);
        out += "\",\"module_offset\":\"" + FormatHex(frame.module_offset) +
               "\"";
      }
      if (!frame.symbol.empty()) {
        out += ",\"symbol\":\"";
        out += JsonEscape(frame.symbol);
        out += "\"";
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]";

  out += ",\"flight_events\":[";
  for (std::size_t i = 0; i < dump.flight_events.size(); ++i) {
    const DiagFlightEvent& ev = dump.flight_events[i];
    if (i != 0) out += ",";
    out += "{\"tid\":" + std::to_string(ev.tid) +
           ",\"seq\":" + std::to_string(ev.seq) +
           ",\"t_ns\":" + std::to_string(ev.t_ns) + ",\"type\":\"";
    out += JsonEscape(ev.type);
    out += "\",\"name\":\"";
    out += JsonEscape(ev.name);
    out += "\",\"arg0\":" + std::to_string(ev.arg0) +
           ",\"arg1\":" + std::to_string(ev.arg1) + "}";
  }
  out += "]";

  out += ",\"module_count\":" + std::to_string(dump.modules.size());
  out += "}";
  return out;
}

}  // namespace dd::obs::diag
