//===- support/JsonWriter.cpp - The one JSON emitter ----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/JsonWriter.h"

#include <cassert>

using namespace usher;

/// Writes \p S as a JSON string literal: quotes, backslashes and control
/// bytes escaped, every other byte passed through.
static void quote(raw_ostream &OS, std::string_view S) {
  OS << '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (C == '\n')
      OS << "\\n";
    else if (C == '\t')
      OS << "\\t";
    else if (static_cast<unsigned char>(C) < 0x20)
      OS.printf("\\u%04x", static_cast<unsigned>(C));
    else
      OS << C;
  }
  OS << '"';
}

void JsonWriter::newline(size_t Depth) {
  OS << '\n';
  for (size_t I = 0; I != Depth; ++I)
    OS << "  ";
}

void JsonWriter::element() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (Stack.empty())
    return;
  Level &Top = Stack.back();
  if (!Top.Empty)
    OS << (Top.L == Layout::Inline ? ", " : ",");
  if (Top.L == Layout::Block)
    newline(Stack.size());
  Top.Empty = false;
}

JsonWriter &JsonWriter::open(char Open, char Close, Layout L) {
  element();
  OS << Open;
  Stack.push_back({L, Close});
  return *this;
}

JsonWriter &JsonWriter::end() {
  assert(!Stack.empty() && !AfterKey && "end() without an open container");
  const Level Top = Stack.back();
  Stack.pop_back();
  if (Top.L == Layout::Block && !Top.Empty)
    newline(Stack.size());
  OS << Top.Close;
  if (Stack.empty())
    OS << '\n';
  return *this;
}

JsonWriter &JsonWriter::key(std::string_view K) {
  assert(!Stack.empty() && Stack.back().Close == '}' && !AfterKey &&
         "key() outside an object");
  element();
  quote(OS, K);
  OS << ": ";
  AfterKey = true;
  return *this;
}

JsonWriter &JsonWriter::string(std::string_view S) {
  element();
  quote(OS, S);
  return *this;
}
