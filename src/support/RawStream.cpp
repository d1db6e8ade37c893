//===- support/RawStream.cpp - Lightweight output streams ----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/RawStream.h"

#include <cinttypes>
#include <cstdarg>

using namespace usher;

raw_ostream::~raw_ostream() = default;

raw_ostream &raw_ostream::operator<<(long long N) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%lld", N);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

raw_ostream &raw_ostream::operator<<(unsigned long long N) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%llu", N);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

raw_ostream &raw_ostream::operator<<(double D) {
  char Buf[64];
  int Len = std::snprintf(Buf, sizeof(Buf), "%g", D);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

raw_ostream &raw_ostream::operator<<(const void *P) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%p", P);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

raw_ostream &raw_ostream::leftJustify(std::string_view Str, unsigned Width) {
  *this << Str;
  for (size_t I = Str.size(); I < Width; ++I)
    *this << ' ';
  return *this;
}

raw_ostream &raw_ostream::rightJustify(std::string_view Str, unsigned Width) {
  for (size_t I = Str.size(); I < Width; ++I)
    *this << ' ';
  return *this << Str;
}

raw_ostream &raw_ostream::printf(const char *Fmt, ...) {
  char Buf[1024];
  va_list Args;
  va_start(Args, Fmt);
  int Len = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (Len > 0)
    write(Buf, static_cast<size_t>(Len) < sizeof(Buf)
                   ? static_cast<size_t>(Len)
                   : sizeof(Buf) - 1);
  return *this;
}

void usher::jsonEscape(raw_ostream &OS, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        OS.printf("\\u%04x",
                  static_cast<unsigned>(static_cast<unsigned char>(C)));
      else
        OS << C;
    }
  }
}

raw_ostream &usher::outs() {
  static raw_fd_ostream Stream(stdout);
  return Stream;
}

raw_ostream &usher::errs() {
  static raw_fd_ostream Stream(stderr);
  return Stream;
}
