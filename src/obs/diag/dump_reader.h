// Offline parser / symbolizer / pretty-printer for `.dddump` files —
// the implementation behind `ddtool diag`. Dumps are written with raw
// backtrace addresses (symbolizing in a crash handler is unsafe), so
// the reader rebases each PC against the module map embedded in the
// dump and, when the module is also loaded in the reader's own address
// space (the normal case: same ddtool binary), resolves symbol names
// through dladdr.

#ifndef DD_OBS_DIAG_DUMP_READER_H_
#define DD_OBS_DIAG_DUMP_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/diag/symbolize.h"  // DiagModule + the shared symbolizer

namespace dd::obs::diag {

struct DiagFrame {
  std::uint64_t pc = 0;
  // Offline enrichment (empty/zero until Symbolize runs or when the
  // module map has no match):
  std::string module;
  std::uint64_t module_offset = 0;  // pc - module load bias (addr2line input)
  std::string symbol;
};

struct DiagBacktrace {
  int tid = 0;
  std::vector<DiagFrame> frames;
};

struct DiagFlightEvent {
  int tid = 0;
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
  std::string type;
  std::string name;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

struct DiagDump {
  int version = 0;
  std::string reason;
  int signal = 0;
  std::string signal_name;
  std::uint64_t fault_addr = 0;
  std::uint64_t pid = 0;
  std::uint64_t tid = 0;
  std::uint64_t uptime_ns = 0;
  std::uint64_t rss_kb = 0;
  std::vector<DiagBacktrace> backtraces;
  std::vector<DiagFlightEvent> flight_events;
  std::vector<DiagModule> modules;
  std::string metrics_text;  // MetricsSnapshotToJson line
  bool complete = false;     // saw the `--- end` marker

  std::size_t TotalFrames() const;
};

// Parses dump text. Returns false (with *error set) only on structural
// failures — missing magic or unparseable header; a truncated dump
// parses with complete=false so a crash cut short mid-write still
// yields everything written before the cut.
bool ParseDiagDump(const std::string& text, DiagDump* out,
                   std::string* error);

// Fills module / module_offset for every frame from the dump's module
// map, and symbol names via dladdr when the module is loaded in this
// process too. Best effort; frames it cannot place keep empty fields.
void SymbolizeDump(DiagDump* dump);

// Human-oriented rendering (what `ddtool diag` prints).
std::string DiagDumpToText(const DiagDump& dump);

// Machine-oriented rendering (`ddtool diag --json`).
std::string DiagDumpToJson(const DiagDump& dump);

}  // namespace dd::obs::diag

#endif  // DD_OBS_DIAG_DUMP_READER_H_
