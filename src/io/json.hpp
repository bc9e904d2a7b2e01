/// \file json.hpp
/// Minimal JSON writer (no external dependencies) plus write_json
/// overloads for the analysis result types.  Reports, wire responses and
/// BENCH lines are each written once, front to back, into one
/// JsonWriter's string.

#ifndef WHARF_IO_JSON_HPP
#define WHARF_IO_JSON_HPP

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/busy_window.hpp"
#include "core/twca.hpp"

namespace wharf::io {

/// JSON writer that appends to a string it owns, with automatic comma
/// placement and string escaping.  Nested documents are written through
/// the same writer (write_json overloads), never spliced in as
/// pre-serialized fragments.  Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name"); w.value("sigma_c");
///   w.key("values"); w.begin_array(); w.value(1); w.value(2); w.end_array();
///   w.end_object();
///   std::string json = w.take();
class JsonWriter {
 public:
  /// Open an object `{` / array `[` in value position, and close the
  /// innermost open one.
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  /// Writes an object member's key; the next call writes its value.
  void key(std::string_view k);

  /// Write one value: strings escaped (the const char* overload keeps a
  /// literal from converting to bool), integers exact, doubles as
  /// printf("%g") prints them (6 significant digits) with NaN and the
  /// infinities as `null`.
  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(long long v);
  void value(long v) { value(static_cast<long long>(v)); }
  void value(int v) { value(static_cast<long long>(v)); }
  void value(double v);
  void value(bool v);
  void null();

  /// The document written so far.
  [[nodiscard]] const std::string& str() const { return out_; }
  /// Moves the document out; the writer is spent afterwards.
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void prefix();
  void open(char bracket);
  void close(char bracket);

  std::string out_;
  /// One frame per open container: true once a first element was emitted.
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
};

/// Escapes `text` as the body of a JSON string literal (no surrounding
/// quotes) — the exact escaping JsonWriter applies, control characters
/// included.  For hand-framed protocol lines (tests, benches, clients).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Write a LatencyResult / DmmResult as a JSON object.
void write_json(JsonWriter& w, const LatencyResult& result);
void write_json(JsonWriter& w, const DmmResult& result);

/// Writes `values` as a JSON array of documents or scalars.
template <typename Range>
void write_array(JsonWriter& w, const Range& values) {
  w.begin_array();
  // An element with a write_json overload is a document; anything else
  // (numbers, strings) goes through JsonWriter::value().
  for (const auto& v : values) {
    if constexpr (requires { write_json(w, v); }) {
      write_json(w, v);
    } else {
      w.value(v);
    }
  }
  w.end_array();
}

}  // namespace wharf::io

#endif  // WHARF_IO_JSON_HPP
