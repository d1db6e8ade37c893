//===- tests/LexerParserTest.cpp - Lexer and parser unit tests -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "ir/IR.h"
#include "ir/Verifier.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/RawStream.h"
#include "workload/Generator.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace usher;
using namespace usher::parser;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

/// Every token \p L produces, up to and including Eof or the one Error
/// token (whose text views \p L's message).
std::vector<Token> tokenize(Lexer &L) {
  std::vector<Token> Tokens{L.next()};
  while (!Tokens.back().is(TokenKind::Eof) &&
         !Tokens.back().is(TokenKind::Error))
    Tokens.push_back(L.next());
  return Tokens;
}

std::vector<TokenKind> kindsOf(std::string_view Src) {
  Lexer L(Src);
  std::vector<TokenKind> Kinds;
  for (const Token &T : tokenize(L))
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, EmptyInputYieldsEof) {
  auto Kinds = kindsOf("");
  ASSERT_EQ(Kinds.size(), 1u);
  EXPECT_EQ(Kinds[0], TokenKind::Eof);
}

TEST(Lexer, TokenizesPunctuationAndOperators) {
  auto Kinds = kindsOf("= ; , ( ) { } [ ] : * + - / % & | ^");
  std::vector<TokenKind> Expected = {
      TokenKind::Assign,  TokenKind::Semi,     TokenKind::Comma,
      TokenKind::LParen,  TokenKind::RParen,   TokenKind::LBrace,
      TokenKind::RBrace,  TokenKind::LBracket, TokenKind::RBracket,
      TokenKind::Colon,   TokenKind::Star,     TokenKind::Plus,
      TokenKind::Minus,   TokenKind::Slash,    TokenKind::Percent,
      TokenKind::Amp,     TokenKind::Pipe,     TokenKind::Caret,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, DistinguishesCompoundOperators) {
  auto Kinds = kindsOf("<< >> <= >= == != < >");
  std::vector<TokenKind> Expected = {
      TokenKind::Shl,    TokenKind::Shr,       TokenKind::LessEq,
      TokenKind::GreaterEq, TokenKind::EqEq,   TokenKind::NotEq,
      TokenKind::Less,   TokenKind::Greater,   TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, ParsesIntegerValues) {
  Lexer L("0 42 1234567890123");
  auto Tokens = tokenize(L);
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 42);
  EXPECT_EQ(Tokens[2].IntValue, 1234567890123LL);
}

TEST(Lexer, RejectsIntegerLiteralAboveInt64Max) {
  Lexer LMax("9223372036854775807");
  auto Max = tokenize(LMax);
  ASSERT_EQ(Max.size(), 2u);
  EXPECT_EQ(Max[0].IntValue, INT64_MAX);

  Lexer L("x = 9223372036854775808;");
  auto Tokens = tokenize(L);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_TRUE(Tokens.back().is(TokenKind::Error));
  EXPECT_EQ(Tokens.back().Text, "integer literal out of range");
  EXPECT_EQ(Tokens.back().Col, 5u);
}

TEST(Lexer, SkipsLineComments) {
  Lexer L("a // comment = ; with stuff\nb");
  auto Tokens = tokenize(L);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
}

TEST(Lexer, TracksLineAndColumn) {
  Lexer L("a\n  b");
  auto Tokens = tokenize(L);
  ASSERT_GE(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[0].Col, 1u);
  EXPECT_EQ(Tokens[1].Line, 2u);
  EXPECT_EQ(Tokens[1].Col, 3u);
}

TEST(Lexer, IdentifiersAllowDotsAndUnderscores) {
  Lexer L("foo_bar obj.f0");
  auto Tokens = tokenize(L);
  EXPECT_EQ(Tokens[0].Text, "foo_bar");
  EXPECT_EQ(Tokens[1].Text, "obj.f0");
}

TEST(Lexer, ReportsUnexpectedCharacter) {
  Lexer L("a $ b");
  auto Tokens = tokenize(L);
  bool SawError = false;
  for (const Token &T : Tokens)
    SawError |= T.is(TokenKind::Error);
  EXPECT_TRUE(SawError);
}

//===----------------------------------------------------------------------===//
// Parser: acceptance
//===----------------------------------------------------------------------===//

TEST(Parser, ParsesMinimalMain) {
  ParseResult R = parseModule("func main() { ret 0; }");
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(R.M->functions().size(), 1u);
}

TEST(Parser, ImplicitReturnAtFunctionEnd) {
  ParseResult R = parseModule("func main() { x = 1; }");
  ASSERT_TRUE(R.succeeded());
  const ir::BasicBlock *Entry = R.M->findFunction("main")->getEntry();
  EXPECT_TRUE(isa<ir::RetInst>(Entry->instructions().back().get()));
}

TEST(Parser, ForwardFunctionReferences) {
  ParseResult R = parseModule(R"(
    func main() { x = helper(3); ret x; }
    func helper(n) { m = n + 1; ret m; }
  )");
  ASSERT_TRUE(R.succeeded()) << R.Errors.front();
}

TEST(Parser, IfCreatesFallthroughBlock) {
  ParseResult R = parseModule(R"(
    func main() {
      x = 1;
      if x goto out;
      x = 2;
    out:
      ret x;
    }
  )");
  ASSERT_TRUE(R.succeeded());
  // entry, fallthrough continuation, and 'out'.
  EXPECT_EQ(R.M->findFunction("main")->blocks().size(), 3u);
}

TEST(Parser, GlobalsResolveAsAddressOperands) {
  ParseResult R = parseModule(R"(
    global g[4] init;
    func main() { p = g; x = *p; ret x; }
  )");
  ASSERT_TRUE(R.succeeded());
  const ir::Function *Main = R.M->findFunction("main");
  const auto *Copy =
      cast<ir::CopyInst>(Main->getEntry()->instructions()[0].get());
  ASSERT_TRUE(Copy->getSrc().isGlobal());
  EXPECT_EQ(Copy->getSrc().getGlobal()->getName(), "g");
}

TEST(Parser, NegativeConstants) {
  ParseResult R = parseModule("func main() { x = -5; ret x; }");
  ASSERT_TRUE(R.succeeded());
  const auto *Copy = cast<ir::CopyInst>(
      R.M->findFunction("main")->getEntry()->instructions()[0].get());
  EXPECT_EQ(Copy->getSrc().getConst(), -5);
}

TEST(Parser, GepWithVariableIndex) {
  ParseResult R = parseModule(R"(
    func main() {
      p = alloc stack 8 uninit array;
      i = 3;
      q = gep p, i;
      *q = 1;
      ret 0;
    }
  )");
  ASSERT_TRUE(R.succeeded());
  bool Found = false;
  for (const auto &I :
       R.M->findFunction("main")->getEntry()->instructions())
    if (const auto *G = dyn_cast<ir::FieldAddrInst>(I.get()))
      Found = !G->hasConstIndex();
  EXPECT_TRUE(Found);
}

TEST(Parser, BareCallStatement) {
  ParseResult R = parseModule(R"(
    func work(n) { ret n; }
    func main() { work(1); ret 0; }
  )");
  ASSERT_TRUE(R.succeeded());
  const auto *Call = cast<ir::CallInst>(
      R.M->findFunction("main")->getEntry()->instructions()[0].get());
  EXPECT_EQ(Call->getDef(), nullptr);
}

TEST(Parser, LocalShadowsSameNamedGlobalOnUse) {
  // A parameter may share a global's name; inside the function the name
  // means the parameter, not the global's address.
  ParseResult R = parseModule(R"(
    global g[1] init;
    func f(g) { x = g; ret x; }
    func main() { y = f(1); p = g; ret y; }
  )");
  ASSERT_TRUE(R.succeeded()) << R.Errors.front();
  const ir::Function *F = R.M->findFunction("f");
  const auto *InF = cast<ir::CopyInst>(F->getEntry()->instructions()[0].get());
  ASSERT_TRUE(InF->getSrc().isVar());
  EXPECT_EQ(InF->getSrc().getVar(), F->params()[0]);
  const auto *InMain = cast<ir::CopyInst>(
      R.M->findFunction("main")->getEntry()->instructions()[1].get());
  ASSERT_TRUE(InMain->getSrc().isGlobal());
  EXPECT_EQ(InMain->getSrc().getGlobal(), R.M->findGlobal("g"));
}

TEST(Parser, DuplicateParameterNamesResolveToTheFirst) {
  ParseResult R = parseModule(R"(
    func f(a, a) { ret a; }
    func main() { x = f(1, 2); ret x; }
  )");
  ASSERT_TRUE(R.succeeded()) << R.Errors.front();
  const ir::Function *F = R.M->findFunction("f");
  ASSERT_EQ(F->params().size(), 2u);
  EXPECT_NE(F->params()[0], F->params()[1]);
  const auto *Ret = cast<ir::RetInst>(F->getEntry()->instructions()[0].get());
  ASSERT_TRUE(Ret->getValue().isVar());
  EXPECT_EQ(Ret->getValue().getVar(), F->params()[0]);
}

TEST(Parser, SameNameInTwoFunctionsGivesDistinctVariables) {
  ParseResult R = parseModule(R"(
    func f() { x = 1; ret x; }
    func main() { x = 2; y = f(); ret x; }
  )");
  ASSERT_TRUE(R.succeeded()) << R.Errors.front();
  const ir::Variable *InF = R.M->findFunction("f")->findVariable("x");
  const ir::Variable *InMain = R.M->findFunction("main")->findVariable("x");
  ASSERT_NE(InF, nullptr);
  ASSERT_NE(InMain, nullptr);
  EXPECT_NE(InF, InMain);
  const auto *Ret = cast<ir::RetInst>(
      R.M->findFunction("main")->getEntry()->instructions().back().get());
  EXPECT_EQ(Ret->getValue().getVar(), InMain);
}

TEST(Parser, BareCallToFunctionDefinedLater) {
  ParseResult R = parseModule(R"(
    func main() { work(1); ret 0; }
    func work(n) { ret n; }
  )");
  ASSERT_TRUE(R.succeeded()) << R.Errors.front();
  const auto *Call = cast<ir::CallInst>(
      R.M->findFunction("main")->getEntry()->instructions()[0].get());
  EXPECT_EQ(Call->getCallee(), R.M->findFunction("work"));
}

//===----------------------------------------------------------------------===//
// Parser: diagnostics
//===----------------------------------------------------------------------===//

TEST(ParserDiagnostics, UseOfUndefinedName) {
  ParseResult R = parseModule("func main() { x = y + 1; ret x; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("undefined name 'y'"), std::string::npos);
}

TEST(ParserDiagnostics, UndefinedLabel) {
  ParseResult R = parseModule("func main() { goto nowhere; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("undefined label"), std::string::npos);
}

TEST(ParserDiagnostics, RedefinedLabel) {
  ParseResult R =
      parseModule("func main() { a: x = 1; a: ret x; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("redefinition of label"),
            std::string::npos);
}

TEST(ParserDiagnostics, WrongArgumentCount) {
  ParseResult R = parseModule(R"(
    func two(a, b) { c = a + b; ret c; }
    func main() { x = two(1); ret x; }
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("passes 1 args, expected 2"),
            std::string::npos);
}

TEST(ParserDiagnostics, ReservedWordAsVariable) {
  ParseResult R = parseModule("func main() { heap = 1; ret heap; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("reserved"), std::string::npos);
}

TEST(ParserDiagnostics, AssigningGlobalDirectly) {
  ParseResult R = parseModule(R"(
    global g[1] init;
    func main() { g = 3; ret 0; }
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("store through a pointer"),
            std::string::npos);
}

TEST(ParserDiagnostics, VarRedeclaringALocal) {
  ParseResult R = parseModule("func main() {\n  x = 1;\n  var x;\n  ret x;\n}");
  ASSERT_FALSE(R.succeeded());
  EXPECT_EQ(R.Errors.front(), "3:7: redeclaration of 'x'");
}

TEST(ParserDiagnostics, VarRedeclaringAParameter) {
  ParseResult R = parseModule("func main() { ret 0; }\nfunc f(a) { var a; ret a; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_EQ(R.Errors.front(), "2:17: redeclaration of 'a'");
}

TEST(ParserDiagnostics, VarRedeclaringAGlobal) {
  ParseResult R = parseModule("global g[1] init;\nfunc main() { var g; ret 0; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_EQ(R.Errors.front(), "2:19: redeclaration of 'g'");
}

TEST(ParserDiagnostics, DuplicateGlobal) {
  ParseResult R = parseModule(
      "global g[1] init;\nglobal g[2] uninit;\nfunc main() { ret 0; }");
  ASSERT_FALSE(R.succeeded());
  ASSERT_EQ(R.Errors.size(), 1u);
  EXPECT_EQ(R.Errors.front(), "2:8: redefinition of global 'g'");
}

TEST(ParserDiagnostics, DuplicateFunction) {
  ParseResult R = parseModule(R"(
    func main() { ret 0; }
    func main() { ret 1; }
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("redefinition of function"),
            std::string::npos);
}

TEST(ParserDiagnostics, TruncatedExpressionReportsEndOfInput) {
  // Input cut off mid-expression: the diagnostic must carry line:col and
  // say "end of input" rather than quoting an empty token.
  ParseResult R = parseModule("func main() {\n  x = 1;\n  y = x +");
  ASSERT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
  const std::string &E = R.Errors.front();
  EXPECT_NE(E.find("3:"), std::string::npos) << E;
  EXPECT_NE(E.find("end of input"), std::string::npos) << E;
  EXPECT_EQ(E.find("''"), std::string::npos) << E;
}

TEST(ParserDiagnostics, TruncatedFunctionReportsEndOfInput) {
  ParseResult R = parseModule("func main() {\n  x = 1;\n");
  ASSERT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
  bool MentionsEof = false;
  for (const std::string &E : R.Errors)
    MentionsEof |= E.find("end of input") != std::string::npos;
  EXPECT_TRUE(MentionsEof) << R.Errors.front();
}

TEST(ParserDiagnostics, LexicalErrorAnywhereIsTheOnlyError) {
  // A parse error in a body (pass 2) and one at top level (pass 1), each
  // followed many lines later by a character no token starts with: only
  // the lexical error is reported, wherever the parser stopped.
  std::string Body = "func main() {\n  x = ;\n";
  std::string TopLevel = "func main() { ret 0; }\nbogus;\n";
  for (std::string *Source : {&Body, &TopLevel}) {
    for (int Line = 0; Line != 40; ++Line)
      *Source += "// filler\n";
    *Source += "func late() {\n  y = 1 $ 2;\n}\n";
    ParseResult R = parseModule(*Source);
    EXPECT_FALSE(R.succeeded());
    ASSERT_EQ(R.Errors.size(), 1u) << R.Errors.front();
    EXPECT_EQ(R.Errors.front(), "44:9: unexpected character '$'");
  }
}

TEST(ParserDiagnostics, UndefinedLabelsAreReportedInNameOrder) {
  ParseResult R = parseModule(
      "func main() {\n  goto zeta;\n  goto alpha;\n}\n");
  ASSERT_EQ(R.Errors.size(), 2u);
  EXPECT_EQ(R.Errors[0], "4:1: undefined label 'alpha' in function 'main'");
  EXPECT_EQ(R.Errors[1], "3:1: undefined label 'zeta' in function 'main'");
}

//===----------------------------------------------------------------------===//
// Printer round-trip
//===----------------------------------------------------------------------===//

TEST(Printer, RoundTripsThroughTheParser) {
  const char *Src = R"(
    global table[8] uninit array;
    func helper(a, b) {
      c = a + b;
      p = alloc heap 4 init;
      q = gep p, 2;
      *q = c;
      v = *q;
      if v goto big;
      ret 0;
    big:
      ret v;
    }
    func main() {
      x = helper(1, 2);
      t = table;
      *t = x;
      y = *t;
      ret y;
    }
  )";
  ParseResult First = parseModule(Src);
  ASSERT_TRUE(First.succeeded());

  std::string Printed;
  raw_string_ostream OS(Printed);
  First.M->print(OS);

  ParseResult Second = parseModule(Printed);
  ASSERT_TRUE(Second.succeeded())
      << "reparse failed: " << Second.Errors.front() << "\n"
      << Printed;
  // Structure is preserved: same functions, same instruction counts per
  // function modulo the extra goto blocks the printer normalizes.
  EXPECT_EQ(First.M->functions().size(), Second.M->functions().size());
  EXPECT_EQ(First.M->objects().size(), Second.M->objects().size());
}

std::string printModule(const ir::Module &M) {
  std::string Text;
  raw_string_ostream OS(Text);
  M.print(OS);
  OS.flush();
  return Text;
}

TEST(Printer, ParserBlocksYieldTheirNamesToLabels) {
  // A printed module names its entry block "entry" and the fall-through
  // blocks "cont.N"; parsing it back must not define those labels twice.
  ParseResult First = parseModule(
      "func main() {\n  c = 1;\n  if c goto a;\n  goto b;\na:\n"
      "  ret 1;\nb:\n  ret 2;\n}\n");
  ASSERT_TRUE(First.succeeded());
  std::string Text = printModule(*First.M);
  for (int Round = 0; Round != 2; ++Round) {
    ParseResult Next = parseModule(Text);
    ASSERT_TRUE(Next.succeeded()) << Next.Errors.front() << "\n" << Text;
    const ir::Function *Main = Next.M->findFunction("main");
    std::vector<std::string> Names;
    for (const auto &BB : Main->blocks())
      Names.push_back(BB->getName());
    std::sort(Names.begin(), Names.end());
    EXPECT_EQ(std::adjacent_find(Names.begin(), Names.end()), Names.end())
        << Text;
    Text = printModule(*Next.M);
  }
}

/// Three print -> parse rounds of generator seeds [20 * P, 20 * P + 20):
/// every round parses and verifies, and the default pipeline's
/// instrumented run of each round gives the generated module's result and
/// warnings (keyed by function, block name and index, which the rounds
/// keep).
class PrintParseRounds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrintParseRounds, KeepResultAndWarnings) {
  auto Run = [](ir::Module &M) {
    core::UsherResult R = core::runUsher(M, core::UsherOptions());
    runtime::ExecutionReport Rep = runtime::Interpreter(M, &R.Plan).run();
    std::vector<std::string> Warnings;
    for (const runtime::Warning &W : Rep.ToolWarnings)
      Warnings.push_back(workload::warningSiteKey(W.At) + " x" +
                         std::to_string(W.Occurrences));
    std::sort(Warnings.begin(), Warnings.end());
    return std::make_pair(Rep.MainResult, Warnings);
  };
  for (uint64_t Seed = GetParam() * 20; Seed != GetParam() * 20 + 20;
       ++Seed) {
    auto M = workload::generateProgram(Seed);
    std::string Text = printModule(*M);
    const auto Want = Run(*M);
    for (int Round = 1; Round <= 3; ++Round) {
      const std::string Tag =
          "seed " + std::to_string(Seed) + " round " + std::to_string(Round);
      ParseResult R = parseModule(Text);
      ASSERT_TRUE(R.succeeded()) << Tag << ": " << R.Errors.front();
      std::vector<std::string> VerifyErrors;
      ASSERT_TRUE(ir::verifyModule(*R.M, VerifyErrors)) << Tag;
      Text = printModule(*R.M);
      EXPECT_EQ(Run(*R.M), Want) << Tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrintParseRounds,
                         ::testing::Range<uint64_t>(0, 10));

} // namespace
