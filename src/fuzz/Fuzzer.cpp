//===- fuzz/Fuzzer.cpp - Coverage-guided differential fuzzing -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Reducer.h"
#include "ir/IR.h"
#include "support/JsonWriter.h"
#include "support/RNG.h"
#include "support/RawStream.h"
#include "workload/Generator.h"
#include "workload/Synthesizer.h"

#include <string>
#include <utility>
#include <vector>

using namespace usher;
using namespace usher::fuzz;

namespace {

/// Stop recording (and reducing) divergences past this many.
constexpr unsigned MaxDivergences = 10;

/// Program shape for fresh generations: smaller than the property-test
/// defaults so a campaign's per-input pipeline cost stays low.
constexpr workload::GeneratorOptions GenShape{/*NumFunctions=*/3,
                                              /*MaxSegmentsPerFn=*/4,
                                              /*MaxStmtsPerSegment=*/6};

/// Shape of synthesized corpus seeds (FuzzOptions::SeedCorpusSynth):
/// mid-size whole programs, an order of magnitude above what the
/// round-by-round generator produces, small enough that a seven-oracle
/// evaluation of a mutant stays in the tens of milliseconds.
workload::ShapeSpec synthShape(uint64_t Seed) {
  workload::ShapeSpec S;
  S.TargetNodes = 1'200;
  S.CallDepth = 3;
  S.Fanout = 2;
  S.RecursionRings = 1;
  S.RingSize = 2;
  S.Seed = Seed;
  return S;
}

std::string printModule(const ir::Module &M) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  M.print(OS);
  return Buf;
}

unsigned countLines(const std::string &S) {
  unsigned N = 0;
  for (char C : S)
    N += C == '\n';
  return N;
}

/// How one campaign round obtained its input.
enum class SchedKind { Generated, Mutated, Spliced, Wrapped };

/// Draws the next input: a fresh generation, or a mutation, splice or
/// wrap of corpus members. The branch taken and the number of RNG draws
/// are a function of the RNG state and whether the corpus is empty.
static std::pair<std::string, SchedKind>
scheduleOne(RNG &Rng, const std::vector<std::string> &Corpus) {
  unsigned Choice = Corpus.empty() ? 0 : static_cast<unsigned>(Rng.below(100));
  if (Corpus.empty() || Choice < 30)
    return {printModule(*workload::generateProgram(Rng.next(), GenShape)),
            SchedKind::Generated};
  if (Choice < 65)
    return {workload::mutateProgram(Corpus[Rng.below(Corpus.size())],
                                    Rng.next()),
            SchedKind::Mutated};
  if (Choice < 85) {
    const std::string &Recv = Corpus[Rng.below(Corpus.size())];
    const std::string &Donor = Corpus[Rng.below(Corpus.size())];
    return {workload::spliceProgram(Recv, Donor, Rng.next()),
            SchedKind::Spliced};
  }
  return {workload::wrapMainInCall(Corpus[Rng.below(Corpus.size())]),
          SchedKind::Wrapped};
}

} // namespace

FuzzReport fuzz::runFuzzer(const FuzzOptions &Opts) {
  RNG Rng(Opts.Seed);
  CoverageMap Cov;
  std::vector<std::string> Corpus;
  // Synthesized corpus seeds go in before round 0, so the first
  // scheduling draw already sees a non-empty corpus.
  for (unsigned I = 0; I != Opts.SeedCorpusSynth; ++I) {
    Corpus.push_back(workload::synthesizeProgram(synthShape(Opts.Seed + I)));
    if (Corpus.size() > Opts.MaxCorpus)
      Corpus.erase(Corpus.begin());
  }
  FuzzReport Rep;
  Rep.Seed = Opts.Seed;

  // Rep.Runs counts completed rounds, so an interrupted report covers
  // exactly the rounds it tallied.
  for (Rep.Runs = 0; Rep.Runs != Opts.Runs; ++Rep.Runs) {
    if (Opts.Stop && Opts.Stop->load(std::memory_order_relaxed)) {
      Rep.Interrupted = true;
      break;
    }
    auto [Source, K] = scheduleOne(Rng, Corpus);
    OracleOutcome Out = runOracles(Source, Opts.Oracle);
    switch (K) {
    case SchedKind::Generated:
      ++Rep.NumGenerated;
      break;
    case SchedKind::Mutated:
      ++Rep.NumMutated;
      break;
    case SchedKind::Spliced:
      ++Rep.NumSpliced;
      break;
    case SchedKind::Wrapped:
      ++Rep.NumWrapped;
      break;
    }
    for (unsigned OK = 0; OK != NumOracleKinds; ++OK)
      Rep.OracleChecked[OK] += Out.Checked[OK] ? 1 : 0;
    if (!Out.Valid) {
      ++Rep.NumInvalid;
      continue;
    }
    ++Rep.NumValid;

    // -- Coverage feedback ----------------------------------------------
    if (Cov.addAll(Out.Features) > 0) {
      Corpus.push_back(Source);
      if (Corpus.size() > Opts.MaxCorpus)
        Corpus.erase(Corpus.begin());
    }

    // -- Divergences: tally, then minimize the first one ----------------
    if (Out.Divergences.empty())
      continue;
    for (const Divergence &D : Out.Divergences)
      ++Rep.OracleDiverged[static_cast<unsigned>(D.Oracle)];
    if (Rep.Divergences.size() >= MaxDivergences)
      continue;

    const Divergence &D0 = Out.Divergences.front();
    DivergenceRecord Rec;
    Rec.Oracle = D0.Oracle;
    Rec.Detail = D0.Detail;
    Rec.Run = Rep.Runs;
    Rec.Source = Source;
    Rec.OriginalLines = countLines(Source);
    Rec.Reduced = Source;
    if (Opts.Reduce) {
      // The predicate must preserve the *same kind* of divergence, and
      // skipping the other oracles makes each call several times cheaper.
      OracleOptions Only = Opts.Oracle;
      Only.Only = D0.Oracle;
      Predicate StillDiverges = [&Only](const std::string &S) {
        OracleOutcome O = runOracles(S, Only);
        return O.Valid && !O.Divergences.empty();
      };
      ReduceResult RR = reduceProgram(Source, StillDiverges);
      Rec.Reduced = std::move(RR.Source);
      Rec.ReduceChecks = RR.NumChecks;
    }
    Rec.ReducedLines = countLines(Rec.Reduced);
    Rep.Divergences.push_back(std::move(Rec));
  }

  Rep.CorpusSize = static_cast<unsigned>(Corpus.size());
  Rep.CoverageKeys = Cov.size();
  return Rep;
}

void FuzzReport::printJson(raw_ostream &OS) const {
  using Layout = JsonWriter::Layout;
  JsonWriter W(OS);
  W.beginObject().members("schema", "usher-fuzz-v1", "seed", Seed,
                          "runs", Runs, "interrupted", Interrupted,
                          "valid", NumValid, "invalid", NumInvalid);
  W.key("scheduled").beginObject(Layout::Inline);
  W.members("generated", NumGenerated, "mutated", NumMutated,
            "spliced", NumSpliced, "wrapped", NumWrapped);
  W.end().members("corpus_size", CorpusSize, "coverage_keys", CoverageKeys);
  W.key("oracles").beginArray();
  for (unsigned K = 0; K != NumOracleKinds; ++K)
    W.beginObject(Layout::Inline)
        .members("oracle", oracleKindName(static_cast<OracleKind>(K)),
                 "checked", OracleChecked[K], "divergences", OracleDiverged[K])
        .end();
  W.end().key("divergences").beginArray();
  for (const DivergenceRecord &D : Divergences)
    W.beginObject(Layout::Inline)
        .members("oracle", oracleKindName(D.Oracle), "run", D.Run,
                 "original_lines", D.OriginalLines,
                 "reduced_lines", D.ReducedLines,
                 "reduce_checks", D.ReduceChecks, "detail", D.Detail,
                 "reduced_source", D.Reduced)
        .end();
  W.end().end();
}
