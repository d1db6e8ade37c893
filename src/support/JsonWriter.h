//===- support/JsonWriter.h - The one JSON emitter --------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every machine-readable report the tools write (diagnosis, fuzz, serve
/// status, the solver and scale benches) goes through JsonWriter, so
/// commas, indentation, string escaping and number format are decided
/// here and nowhere else.
///
/// Objects and arrays come in two layouts:
///
///  - Block: one member per line, two spaces of indent per nesting level,
///    the closing bracket on its own line (an empty container prints
///    `{}` / `[]`);
///  - Inline: members separated by ", " on the current line.
///
/// A document ends with a newline once its outermost container closes.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_JSONWRITER_H
#define USHER_SUPPORT_JSONWRITER_H

#include "support/RawStream.h"

#include <string_view>
#include <type_traits>
#include <vector>

namespace usher {

class JsonWriter {
public:
  enum class Layout { Block, Inline };

  explicit JsonWriter(raw_ostream &OS) : OS(OS) {}

  JsonWriter &beginObject(Layout L = Layout::Block) {
    return open('{', '}', L);
  }
  JsonWriter &beginArray(Layout L = Layout::Block) {
    return open('[', ']', L);
  }
  /// Closes the innermost open object or array.
  JsonWriter &end();

  /// Starts an object member; the next value or container is its value.
  JsonWriter &key(std::string_view K);

  /// Object members from key/value pairs: members("a", 1, "b", "x").
  /// Values are strings (escaped), bools, integers, or doubles in fixed
  /// notation with four decimals.
  template <typename V, typename... Rest>
  JsonWriter &members(std::string_view K, const V &Val, const Rest &...More) {
    key(K).value(Val);
    if constexpr (sizeof...(More) != 0)
      members(More...);
    return *this;
  }

private:
  template <typename T> JsonWriter &value(const T &V) {
    if constexpr (std::is_convertible_v<const T &, std::string_view>) {
      return string(V);
    } else {
      static_assert(std::is_arithmetic_v<T>, "not a JSON scalar");
      element();
      if constexpr (std::is_same_v<T, bool>)
        OS << (V ? "true" : "false");
      else if constexpr (std::is_floating_point_v<T>)
        OS.printf("%.4f", static_cast<double>(V));
      else if constexpr (std::is_signed_v<T>)
        OS << static_cast<long long>(V);
      else
        OS << static_cast<unsigned long long>(V);
      return *this;
    }
  }

  struct Level {
    Layout L;
    char Close; ///< '}' or ']'.
    bool Empty = true;
  };

  JsonWriter &open(char Open, char Close, Layout L);
  JsonWriter &string(std::string_view S);
  /// Writes the separator (and, in a block, the line break and indent)
  /// that precedes a new member or element, unless it follows a key.
  void element();
  void newline(size_t Depth);

  raw_ostream &OS;
  std::vector<Level> Stack;
  bool AfterKey = false;
};

} // namespace usher

#endif // USHER_SUPPORT_JSONWRITER_H
