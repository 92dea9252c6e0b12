#include "obs/jsonl.hpp"

#include <cmath>
#include <cstdlib>
#include <istream>

namespace cesrm::obs {

bool parse_event_kind(const std::string& name, EventKind& out) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == event_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

namespace {

/// Cursor over one line. The grammar is the exporter's output: a flat
/// object of "key":value pairs where values are JSON numbers or a quoted
/// kind name — no nesting, no escapes (kind names are snake_case ASCII).
struct LineCursor {
  const std::string& line;
  std::size_t pos = 0;
  std::string error;

  bool fail(std::string msg) {
    if (error.empty()) error = std::move(msg);
    return false;
  }
  void skip_ws() {
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t'))
      ++pos;
  }
  bool expect(char c) {
    skip_ws();
    if (pos >= line.size() || line[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }
  bool peek(char c) {
    skip_ws();
    return pos < line.size() && line[pos] == c;
  }
  bool read_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\') return fail("escapes not used by the exporter");
      out += line[pos++];
    }
    return expect('"');
  }
  bool read_number(double& out) {
    skip_ws();
    const char* begin = line.c_str() + pos;
    char* end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin) return fail("expected a number");
    pos += static_cast<std::size_t>(end - begin);
    return true;
  }
};

bool parse_line(const std::string& line, TraceEvent& e, std::string& error) {
  LineCursor c{line, 0, {}};
  if (!c.expect('{')) {
    error = c.error;
    return false;
  }
  bool saw_ts = false, saw_kind = false;
  bool first = true;
  while (!c.peek('}')) {
    if (!first && !c.expect(',')) break;
    first = false;
    std::string key;
    if (!c.read_string(key) || !c.expect(':')) break;
    if (key == "kind") {
      std::string name;
      if (!c.read_string(name)) break;
      if (!parse_event_kind(name, e.kind)) {
        c.fail("unknown event kind \"" + name + "\"");
        break;
      }
      saw_kind = true;
      continue;
    }
    double value = 0;
    if (!c.read_number(value)) break;
    if (key == "ts_us") {
      // json_double's 17 digits make this exact for sim-scale timestamps.
      e.at = sim::SimTime::nanos(std::llround(value * 1000.0));
      saw_ts = true;
    } else if (key == "node") {
      e.node = static_cast<net::NodeId>(value);
    } else if (key == "source") {
      e.source = static_cast<net::NodeId>(value);
    } else if (key == "seq") {
      e.seq = static_cast<net::SeqNo>(value);
    } else if (key == "peer") {
      e.peer = static_cast<net::NodeId>(value);
    } else if (key == "detail") {
      e.detail = static_cast<std::int64_t>(value);
    } else if (key == "aux") {
      e.aux = static_cast<std::int64_t>(value);
    } else {
      c.fail("unknown key \"" + key + "\"");
      break;
    }
  }
  if (c.error.empty()) {
    c.expect('}');
    if (c.error.empty() && !saw_ts) c.fail("missing \"ts_us\"");
    if (c.error.empty() && !saw_kind) c.fail("missing \"kind\"");
  }
  error = c.error;
  return error.empty();
}

}  // namespace

JsonlReadResult read_events_jsonl(std::istream& is) {
  JsonlReadResult result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    TraceEvent e;
    std::string error;
    if (!parse_line(line, e, error)) {
      result.ok = false;
      result.error_line = line_no;
      result.error = error;
      result.events.clear();
      return result;
    }
    result.events.push_back(e);
  }
  return result;
}

}  // namespace cesrm::obs
