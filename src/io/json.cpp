#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>

#include "util/expect.hpp"

namespace wharf::io {

namespace {

/// Appends `text` to `out` with JSON string escaping: the named escapes
/// for `"`, `\`, newline, carriage return and tab, `\u00XX` for every
/// other control byte; everything else (UTF-8 included) passes through.
void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(text, run);
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  append_escaped(out, text);
  return out;
}

void JsonWriter::prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::open(char bracket) {
  prefix();
  out_ += bracket;
  needs_comma_.push_back(false);
}

void JsonWriter::close(char bracket) {
  WHARF_ASSERT(!needs_comma_.empty());
  needs_comma_.pop_back();
  out_ += bracket;
}

void JsonWriter::key(std::string_view k) {
  value(k);
  out_ += ':';
  pending_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  prefix();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
}

void JsonWriter::value(long long v) {
  prefix();
  char buf[24];  // INT64_MIN is 20 characters
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void JsonWriter::value(double v) {
  prefix();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  // General format at precision 6 is printf's "%g" — what a default
  // std::ostream prints for a double.
  char buf[32];  // at most "-1.23457e+308"
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6).ptr);
}

void JsonWriter::value(bool v) {
  prefix();
  out_ += v ? "true" : "false";
}

void JsonWriter::null() {
  prefix();
  out_ += "null";
}

void write_json(JsonWriter& w, const LatencyResult& result) {
  w.begin_object();
  w.key("bounded");
  w.value(result.bounded);
  if (!result.bounded) {
    w.key("reason");
    w.value(result.reason);
  } else {
    w.key("K");
    w.value(result.K);
    w.key("wcl");
    w.value(result.wcl);
    w.key("worst_q");
    w.value(result.worst_q);
    w.key("busy_times");
    write_array(w, result.busy_times);
    if (result.misses_per_window.has_value()) {
      w.key("misses_per_window");
      w.value(*result.misses_per_window);
      w.key("schedulable");
      w.value(result.schedulable);
    }
  }
  w.end_object();
}

void write_json(JsonWriter& w, const DmmResult& result) {
  w.begin_object();
  w.key("k");
  w.value(result.k);
  w.key("dmm");
  w.value(result.dmm);
  w.key("status");
  w.value(to_string(result.status));
  if (!result.reason.empty()) {
    w.key("reason");
    w.value(result.reason);
  }
  w.key("wcl");
  w.value(result.wcl);
  w.key("K");
  w.value(result.K);
  w.key("n_b");
  w.value(result.n_b);
  w.key("slack");
  w.value(result.slack);
  w.key("omegas");
  write_array(w, result.omegas);
  w.key("unschedulable_combinations");
  w.value(static_cast<std::int64_t>(result.unschedulable_count));
  w.key("packing_optimum");
  w.value(result.packing_optimum);
  w.key("solver_nodes");
  w.value(result.solver_nodes);
  w.end_object();
}

}  // namespace wharf::io
