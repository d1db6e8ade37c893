//===- examples/vfg_explorer.cpp - Inspecting the value-flow graph ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reconstructs the paper's Figure 6 scenario — a heap object written in a
/// loop, where a *semi-strong update* lets the analysis bypass the
/// allocation's undefinedness — and prints:
///  - the update flavor chosen for every store, read from the origin of
///    the store's chi nodes (a chi no load reads has no node: "pruned"),
///  - the definedness (Gamma) of each critical use,
///  - the whole VFG in Graphviz dot syntax (pipe into `dot -Tsvg`).
///
//===----------------------------------------------------------------------===//

#include "analysis/PointerAnalysis.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "support/RawStream.h"

#include <map>
#include <utility>

using namespace usher;

// Figure 6 of the paper, in TinyC: an allocation wrapper-free loop where
// `p` always points at the most recent allocation, so the store *p := t
// can bypass the fresh object's undefinedness (semi-strong update), and
// the load afterwards is provably defined.
static const char *Program = R"(
  func main() {
    i = 0;
    sum = 0;
  loop:
    c = i < 10;
    if c goto body;
    goto done;
  body:
    q = alloc heap 1 uninit;    // fresh, undefined object each trip
    p = q;                      // p uniquely points to the fresh object
    t = i * 2;
    *p = t;                     // semi-strong: bypasses the alloc's F
    v = *q;                     // provably defined despite alloc_F
    sum = sum + v;
    i = i + 1;
    goto loop;
  done:
    ret sum;
  }
)";

int main(int argc, char **argv) {
  raw_ostream &OS = outs();
  auto M = parser::parseModuleOrAbort(Program);

  core::UsherResult R = core::runUsher(*M, core::UsherOptions());

  // Each live store chi's node names its flavor.
  std::map<std::pair<const ir::Instruction *, uint32_t>, vfg::NodeOrigin>
      ChiFlavor;
  for (uint32_t Id = 2; Id != R.G->numNodes(); ++Id) {
    const vfg::VFG::NodeData &N = R.G->node(Id);
    if (N.Def && isa<ir::StoreInst>(N.Def) && N.Key.Sp == ssa::Space::Memory)
      ChiFlavor[{N.Def, N.Key.Id}] = R.G->origin(Id);
  }

  OS << "--- store update flavors (Section 3.2) ---\n";
  for (const auto &F : M->functions()) {
    for (const auto &BB : F->blocks()) {
      for (const auto &I : BB->instructions()) {
        const auto *St = dyn_cast<ir::StoreInst>(I.get());
        if (!St)
          continue;
        OS << "  \"";
        St->print(OS);
        OS << "\" -> ";
        bool First = true;
        for (uint32_t Loc : R.PA->pointsTo(St->getPtr())) {
          if (!First)
            OS << ", ";
          auto It = ChiFlavor.find({St, Loc});
          if (It == ChiFlavor.end())
            OS << "pruned";
          else if (It->second == vfg::NodeOrigin::StoreChiStrong)
            OS << "strong";
          else if (It->second == vfg::NodeOrigin::StoreChiSemi)
            OS << "semi-strong";
          else
            OS << "weak";
          OS << " update of " << R.PA->location(Loc).Obj->getName()
             << " field " << R.PA->location(Loc).Field;
          First = false;
        }
        OS << '\n';
      }
    }
  }

  OS << "--- definedness of critical uses (Section 3.3) ---\n";
  unsigned Checks = 0;
  for (const vfg::VFG::CriticalUse &Use : R.G->criticalUses()) {
    OS << "  " << Use.Var->getName() << " at \"";
    Use.I->print(OS);
    OS << "\": "
       << (R.Gamma->isDefined(Use.Node) ? "defined (no check)"
                                        : "may be undefined (check)")
       << '\n';
    Checks += !R.Gamma->isDefined(Use.Node);
  }
  OS << Checks << " runtime check(s) remain out of "
     << R.G->criticalUses().size() << " critical uses.\n";

  if (argc > 1 && std::string_view(argv[1]) == "--dot") {
    OS << "--- VFG (Graphviz) ---\n";
    R.G->dumpDot(OS);
  } else {
    OS << "(run with --dot to print the value-flow graph)\n";
  }
  return 0;
}
