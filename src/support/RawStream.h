//===- support/RawStream.h - Lightweight output streams ---------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal analog of llvm::raw_ostream. The project never includes
/// <iostream> in library code; all diagnostics and dumps go through these
/// streams.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_RAWSTREAM_H
#define USHER_SUPPORT_RAWSTREAM_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace usher {

/// Base class for the project's output streams.
class raw_ostream {
public:
  virtual ~raw_ostream();

  raw_ostream &operator<<(char C) {
    write(&C, 1);
    return *this;
  }
  raw_ostream &operator<<(std::string_view Str) {
    write(Str.data(), Str.size());
    return *this;
  }
  raw_ostream &operator<<(const char *Str) {
    return *this << std::string_view(Str);
  }
  raw_ostream &operator<<(const std::string &Str) {
    return *this << std::string_view(Str);
  }
  raw_ostream &operator<<(long long N);
  raw_ostream &operator<<(unsigned long long N);
  raw_ostream &operator<<(int N) { return *this << static_cast<long long>(N); }
  raw_ostream &operator<<(unsigned N) {
    return *this << static_cast<unsigned long long>(N);
  }
  raw_ostream &operator<<(long N) {
    return *this << static_cast<long long>(N);
  }
  raw_ostream &operator<<(unsigned long N) {
    return *this << static_cast<unsigned long long>(N);
  }
  raw_ostream &operator<<(double D);
  raw_ostream &operator<<(bool B) { return *this << (B ? "true" : "false"); }
  raw_ostream &operator<<(const void *P);

  /// Writes \p Size bytes starting at \p Ptr to the stream.
  virtual void write(const char *Ptr, size_t Size) = 0;

  /// Flushes buffered output, if any.
  virtual void flush() {}

  /// Writes \p Str padded with spaces on the right to at least \p Width.
  raw_ostream &leftJustify(std::string_view Str, unsigned Width);

  /// Writes \p Str padded with spaces on the left to at least \p Width.
  raw_ostream &rightJustify(std::string_view Str, unsigned Width);

  /// Appends a printf-style formatted string.
  raw_ostream &printf(const char *Fmt, ...)
      __attribute__((format(printf, 2, 3)));
};

/// Stream that appends to a std::string owned by the caller.
class raw_string_ostream : public raw_ostream {
public:
  explicit raw_string_ostream(std::string &Buf) : Buf(Buf) {}

  void write(const char *Ptr, size_t Size) override {
    Buf.append(Ptr, Size);
  }

  /// Returns the accumulated contents.
  const std::string &str() const { return Buf; }

private:
  std::string &Buf;
};

/// Stream over a C FILE handle; does not own the handle.
class raw_fd_ostream : public raw_ostream {
public:
  explicit raw_fd_ostream(std::FILE *FP) : FP(FP) {}

  void write(const char *Ptr, size_t Size) override {
    std::fwrite(Ptr, 1, Size, FP);
  }
  void flush() override { std::fflush(FP); }

private:
  std::FILE *FP;
};

/// Returns the stream bound to stdout.
raw_ostream &outs();

/// Returns the stream bound to stderr.
raw_ostream &errs();

/// Reads the whole file at \p Path into \p Out. Returns false if it
/// cannot be opened or a read fails.
bool readFile(const std::string &Path, std::string &Out);

} // namespace usher

#endif // USHER_SUPPORT_RAWSTREAM_H
