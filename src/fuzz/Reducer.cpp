//===- fuzz/Reducer.cpp - Greedy hierarchical test-case reduction ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Reducer.h"

#include "workload/Generator.h"

#include <cctype>
#include <string>
#include <vector>

using namespace usher;
using namespace usher::fuzz;
using workload::joinLines;
using workload::splitLines;
using workload::trimmedLine;

namespace {

/// Full sweeps over all three pass shapes.
constexpr unsigned MaxPasses = 8;

/// Deletable granularity: anything except function headers and closing
/// braces (removing those alone always breaks the structure — whole
/// functions go in one piece in the coarse pass instead).
bool isBodyLine(const std::string &Line) {
  std::string T = trimmedLine(Line);
  return !T.empty() && T != "}" && T.rfind("func ", 0) != 0;
}

/// Budgeted predicate evaluation.
struct Checker {
  const Predicate &P;
  unsigned Cap;
  unsigned Checks = 0;

  bool exhausted() const { return Checks >= Cap; }
  bool test(const std::vector<std::string> &Lines) {
    if (exhausted())
      return false;
    ++Checks;
    return P(joinLines(Lines));
  }
};

/// Pass 1: remove whole functions, header through closing brace. main is
/// left alone — no TinyC program is valid without it.
bool removeFunctions(std::vector<std::string> &Lines, Checker &C) {
  bool Changed = false;
  for (bool Retry = true; Retry && !C.exhausted();) {
    Retry = false;
    for (size_t I = 0; I != Lines.size(); ++I) {
      std::string T = trimmedLine(Lines[I]);
      if (T.rfind("func ", 0) != 0 || T.rfind("func main(", 0) == 0)
        continue;
      size_t Close = I + 1;
      while (Close != Lines.size() && trimmedLine(Lines[Close]) != "}")
        ++Close;
      if (Close == Lines.size())
        continue;
      std::vector<std::string> Cand(Lines.begin(),
                                    Lines.begin() +
                                        static_cast<std::ptrdiff_t>(I));
      Cand.insert(Cand.end(),
                  Lines.begin() + static_cast<std::ptrdiff_t>(Close) + 1,
                  Lines.end());
      if (C.test(Cand)) {
        Lines = std::move(Cand);
        Changed = Retry = true;
        break;
      }
      if (C.exhausted())
        break;
    }
  }
  return Changed;
}

/// Pass 2: ddmin-style deletion of chunks of body lines, chunk size
/// halving from half the candidate count down to one line.
bool deleteChunks(std::vector<std::string> &Lines, Checker &C) {
  bool Changed = false;
  auto Candidates = [&Lines] {
    std::vector<size_t> Idx;
    for (size_t I = 0; I != Lines.size(); ++I)
      if (isBodyLine(Lines[I]))
        Idx.push_back(I);
    return Idx;
  };
  std::vector<size_t> Cand = Candidates();
  size_t Chunk = Cand.size() / 2;
  if (Chunk == 0)
    Chunk = 1;
  while (Chunk >= 1 && !C.exhausted()) {
    bool AnyAtThisSize = false;
    for (size_t Pos = 0; Pos + Chunk <= Cand.size() && !C.exhausted();) {
      std::vector<std::string> Next;
      size_t Lo = Cand[Pos], Hi = Cand[Pos + Chunk - 1];
      for (size_t I = 0; I != Lines.size(); ++I) {
        bool Drop = I >= Lo && I <= Hi && isBodyLine(Lines[I]);
        if (!Drop)
          Next.push_back(Lines[I]);
      }
      if (C.test(Next)) {
        Lines = std::move(Next);
        Cand = Candidates();
        Changed = AnyAtThisSize = true;
        // Stay at Pos: the window now covers fresh lines.
      } else {
        ++Pos;
      }
    }
    if (Chunk == 1)
      break;
    Chunk = AnyAtThisSize ? Chunk : Chunk / 2;
    if (Chunk > Cand.size())
      Chunk = Cand.size() / 2 ? Cand.size() / 2 : 1;
  }
  return Changed;
}

/// Pass 3: simplify single lines — replace a definition's right-hand side
/// with the constant 0, which removes its data dependencies while keeping
/// the definition (so later uses stay declared).
bool simplifyLines(std::vector<std::string> &Lines, Checker &C) {
  bool Changed = false;
  for (size_t I = 0; I != Lines.size() && !C.exhausted(); ++I) {
    std::string T = trimmedLine(Lines[I]);
    if (T.empty() || T.back() != ';' || T[0] == '*')
      continue;
    size_t Eq = T.find(" = ");
    if (Eq == std::string::npos)
      continue;
    std::string Name = T.substr(0, Eq);
    for (char Ch : Name)
      if (!std::isalnum(static_cast<unsigned char>(Ch)) && Ch != '_') {
        Name.clear();
        break;
      }
    if (Name.empty() || T.rfind("var ", 0) == 0)
      continue;
    std::string Simple = "  " + Name + " = 0;";
    if (trimmedLine(Simple) == T)
      continue;
    std::string Saved = Lines[I];
    Lines[I] = Simple;
    if (C.test(Lines)) {
      Changed = true;
    } else {
      Lines[I] = std::move(Saved);
    }
  }
  return Changed;
}

} // namespace

ReduceResult fuzz::reduceProgram(const std::string &Source,
                                 const Predicate &P, unsigned MaxChecks) {
  ReduceResult Res;
  Res.Source = Source;
  Checker C{P, MaxChecks};

  std::vector<std::string> Lines = splitLines(Source);
  if (!C.test(Lines)) // The input itself must exhibit the behavior.
    return Res;

  for (unsigned Pass = 0; Pass != MaxPasses && !C.exhausted(); ++Pass) {
    bool Changed = false;
    Changed |= removeFunctions(Lines, C);
    Changed |= deleteChunks(Lines, C);
    Changed |= simplifyLines(Lines, C);
    ++Res.NumPasses;
    if (!Changed)
      break;
  }
  Res.Source = joinLines(Lines);
  Res.NumChecks = C.Checks;
  return Res;
}
