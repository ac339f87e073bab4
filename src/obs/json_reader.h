// Minimal JSON reader and the one Chrome-trace event reader built on it,
// shared by the trace validator (obs/trace.cpp) and the critical-path
// profiler (obs/critpath.cpp). Internal to obs: it handles exactly the
// subset Chrome trace files use — objects, arrays, strings with escapes,
// numbers, true/false/null — and reports the first failure with its byte
// offset instead of throwing.
#pragma once

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace txconc::obs::internal {

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string parse_string() {
    skip_ws();
    std::string out;
    if (!consume('"')) return fail("expected string"), out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            pos_ += 4;  // trace labels are ASCII; skip the code point
            c = '?';
            break;
          default: c = esc;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return fail("unterminated string"), out;
    ++pos_;  // closing quote
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number"), 0.0;
    return std::stod(text_.substr(start, pos_ - start));
  }

  /// Skip any value (used for unrecognized object members).
  void skip_value() {
    skip_ws();
    const char c = peek();
    if (c == '"') {
      parse_string();
    } else if (c == '{') {
      consume('{');
      if (consume('}')) return;
      do {
        parse_string();
        if (!consume(':')) return fail("expected ':'");
        skip_value();
      } while (consume(',') && !failed_);
      if (!consume('}')) fail("expected '}'");
    } else if (c == '[') {
      consume('[');
      if (consume(']')) return;
      do {
        skip_value();
      } while (consume(',') && !failed_);
      if (!consume(']')) fail("expected ']'");
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (pos_ < text_.size() &&
             std::isalpha(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    } else {
      parse_number();
    }
  }

  void fail(const std::string& why) {
    if (!failed_) {
      failed_ = true;
      error_ = why + " at offset " + std::to_string(pos_);
    }
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

/// One 'B', 'E', 'i', 's' or 'f' record of a Chrome trace.
struct ChromeEvent {
  std::string name;
  char phase = '\0';
  int pid = 0;
  int tid = 0;
  double ts = 0.0;
  bool has_ts = false;
  std::uint64_t id = 0;  ///< flow id of 's'/'f' events
  std::int64_t arg = -1;  ///< args.arg
  /// Causal identity of 'B' events (args.trace_id / span_id / parent_span).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
};

/// A Chrome trace's events in file order, plus the process_name and
/// thread_name metadata records. Other phases are dropped.
struct ChromeTrace {
  bool ok = false;
  std::string error;
  std::vector<ChromeEvent> events;
  std::map<int, std::string> process_names;
  std::map<std::pair<int, int>, std::string> thread_names;
};

/// Read the traceEvents array of a Chrome trace's JSON object form. Only
/// syntax is checked here; callers check what the events mean.
inline ChromeTrace read_chrome_trace(const std::string& json) {
  ChromeTrace out;
  JsonReader reader(json);
  const auto fail = [&out](std::string why) {
    out.ok = false;
    out.error = std::move(why);
    return out;
  };

  if (!reader.consume('{')) return fail("trace is not a JSON object");
  bool saw_array = false;
  if (!reader.consume('}')) {
    do {
      const std::string key = reader.parse_string();
      if (!reader.consume(':')) return fail("expected ':' after key");
      if (key != "traceEvents") {
        reader.skip_value();
        if (reader.failed()) return fail(reader.error());
        continue;
      }
      saw_array = true;
      if (!reader.consume('[')) return fail("traceEvents is not an array");
      if (reader.consume(']')) break;
      do {
        if (!reader.consume('{')) return fail("event is not an object");
        ChromeEvent event;
        std::string meta_name;  // args.name of 'M' metadata records
        if (!reader.consume('}')) {
          do {
            const std::string field = reader.parse_string();
            if (!reader.consume(':')) return fail("expected ':' in event");
            if (field == "name") {
              event.name = reader.parse_string();
            } else if (field == "ph") {
              const std::string ph = reader.parse_string();
              event.phase = ph.empty() ? '\0' : ph[0];
            } else if (field == "pid") {
              event.pid = static_cast<int>(reader.parse_number());
            } else if (field == "tid") {
              event.tid = static_cast<int>(reader.parse_number());
            } else if (field == "ts") {
              event.ts = reader.parse_number();
              event.has_ts = true;
            } else if (field == "id") {
              event.id = static_cast<std::uint64_t>(reader.parse_number());
            } else if (field == "args") {
              if (!reader.consume('{')) return fail("args not an object");
              if (!reader.consume('}')) {
                do {
                  const std::string arg_key = reader.parse_string();
                  if (!reader.consume(':')) return fail("bad args");
                  if (arg_key == "arg") {
                    event.arg =
                        static_cast<std::int64_t>(reader.parse_number());
                  } else if (arg_key == "name") {
                    meta_name = reader.parse_string();
                  } else if (arg_key == "trace_id") {
                    event.trace_id =
                        static_cast<std::uint64_t>(reader.parse_number());
                  } else if (arg_key == "span_id") {
                    event.span_id =
                        static_cast<std::uint64_t>(reader.parse_number());
                  } else if (arg_key == "parent_span") {
                    event.parent_span =
                        static_cast<std::uint64_t>(reader.parse_number());
                  } else {
                    reader.skip_value();
                  }
                } while (reader.consume(','));
                if (!reader.consume('}')) return fail("unclosed args");
              }
            } else {
              reader.skip_value();
            }
            if (reader.failed()) return fail(reader.error());
          } while (reader.consume(','));
          if (!reader.consume('}')) return fail("unclosed event object");
        }
        if (event.phase == 'M') {
          if (event.name == "process_name") {
            out.process_names[event.pid] = std::move(meta_name);
          } else if (event.name == "thread_name") {
            out.thread_names[{event.pid, event.tid}] = std::move(meta_name);
          }
        } else if (event.phase == 'B' || event.phase == 'E' ||
                   event.phase == 'i' || event.phase == 's' ||
                   event.phase == 'f') {
          out.events.push_back(std::move(event));
        }
      } while (reader.consume(','));
      if (!reader.consume(']')) return fail("unclosed traceEvents array");
    } while (reader.consume(','));
  }
  if (reader.failed()) return fail(reader.error());
  if (!saw_array) return fail("no traceEvents array");
  out.ok = true;
  return out;
}

}  // namespace txconc::obs::internal
