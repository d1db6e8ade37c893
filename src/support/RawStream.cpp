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

raw_ostream &usher::outs() {
  static raw_fd_ostream Stream(stdout);
  return Stream;
}

raw_ostream &usher::errs() {
  static raw_fd_ostream Stream(stderr);
  return Stream;
}

bool usher::readFile(const std::string &Path, std::string &Out) {
  std::FILE *FP = std::fopen(Path.c_str(), "rb");
  if (!FP)
    return false;
  Out.clear();
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), FP)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(FP);
  std::fclose(FP);
  return Ok;
}
