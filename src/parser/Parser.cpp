//===- parser/Parser.cpp - TinyC text -> IR -------------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "ir/IR.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "parser/Lexer.h"
#include "support/RawStream.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <initializer_list>
#include <memory_resource>
#include <optional>
#include <unordered_map>

using namespace usher;
using namespace usher::parser;
using ir::BasicBlock;
using ir::BinOpcode;
using ir::Function;
using ir::MemObject;
using ir::Operand;
using ir::Region;
using ir::Variable;

namespace {

/// Names with fixed meaning that may not be used as variables or labels.
bool isReservedWord(std::string_view Name) {
  static constexpr std::string_view Reserved[] = {
      "global", "func", "alloc", "gep",    "if",     "goto",
      "ret",    "stack", "heap",  "init",  "uninit", "array",
      "var"};
  return std::find(std::begin(Reserved), std::end(Reserved), Name) !=
         std::end(Reserved);
}

/// The concatenation of \p Parts, for diagnostics.
std::string cat(std::initializer_list<std::string_view> Parts) {
  std::string Out;
  for (std::string_view P : Parts)
    Out += P;
  return Out;
}

/// A name table keyed by views into the source (or into the names of the
/// entities it holds), so a lookup hashes the token text in place.
template <typename T>
using NameTable = std::pmr::unordered_map<std::string_view, T>;

/// The entity \p Table maps \p Name to, or null.
template <typename T>
T *lookup(const NameTable<T *> &Table, std::string_view Name) {
  auto It = Table.find(Name);
  return It == Table.end() ? nullptr : It->second;
}

/// A label of the current function: its block, the line of the first
/// reference (cited if it stays undefined) and whether it was defined.
struct LabelInfo {
  BasicBlock *BB = nullptr;
  unsigned RefLine = 0;
  bool Defined = false;
};

class ParserImpl {
public:
  ParserImpl(std::string_view Source) : L(Source) { Cur = lex(); }

  ParseResult run();

private:
  // Token cursor helpers. The parser looks at most two tokens ahead, so
  // it lexes on demand and keeps just those two; the second is lexed only
  // when asked for.
  /// The next token from the lexer. A lexical error is recorded and read
  /// as the end of input: it is the only diagnostic run() reports.
  Token lex() {
    Token T = L.next();
    if (T.is(TokenKind::Error)) {
      LexError = T;
      T = Token();
      T.Line = LexError->Line;
      T.Col = LexError->Col;
    }
    return T;
  }
  const Token &peek() const { return Cur; }
  const Token &peekNext() {
    if (!HasNext) {
      Next = lex();
      HasNext = true;
    }
    return Next;
  }
  Token advance() {
    Token T = Cur;
    Cur = HasNext ? Next : lex();
    HasNext = false;
    return T;
  }
  /// With the cursor on a '{', moves it past the matching '}' without
  /// tokenizing the block: pass 1 only needs to know where it ends.
  void skipBlock() {
    assert(check(TokenKind::LBrace) && !HasNext);
    L.skipBlock();
    Cur = lex();
  }
  /// Moves the cursor back to the first token of the source.
  void restart() {
    L.rewind();
    Cur = lex();
    HasNext = false;
  }
  bool check(TokenKind K) const { return peek().is(K); }
  bool match(TokenKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind K, const char *What) {
    if (match(K))
      return true;
    error(std::string("expected ") + What + ", found " + foundDesc());
    return false;
  }

  /// What the error position holds, for "expected X, found Y" messages.
  /// Truncated input yields "end of input" instead of an empty quote.
  std::string foundDesc() const {
    const Token &T = peek();
    if (T.is(TokenKind::Eof))
      return "end of input";
    return cat({"'", T.Text, "'"});
  }

  void error(const std::string &Msg) { errorAt(peek(), Msg); }

  /// Reports \p Msg at \p T, e.g. at a name already consumed.
  void errorAt(const Token &T, const std::string &Msg) {
    Errors.push_back(std::to_string(T.Line) + ":" + std::to_string(T.Col) +
                     ": " + Msg);
  }

  /// Skips tokens until just past the next ';' (or a brace boundary).
  void recover() {
    while (!check(TokenKind::Eof) && !check(TokenKind::RBrace)) {
      if (advance().is(TokenKind::Semi))
        return;
    }
  }

  // Pass 1: create functions (with params) and globals.
  void scanTopLevel();
  // Pass 2: parse bodies.
  void parseTopLevel();
  void parseGlobalDecl(bool Declare);
  void parseFunctionBody(Function *F);
  void parseStatement();
  bool parseOperand(Operand &Out);
  bool parseBinOpcode(BinOpcode &Out);

  Variable *resolveOrCreateDef(std::string_view Name);
  Variable *createLocal(std::string_view Name);
  LabelInfo &lookupLabel(std::string_view Name);
  void startBlock(BasicBlock *BB);

  Lexer L;
  Token Cur, Next;
  bool HasNext = false;
  std::optional<Token> LexError;
  std::vector<std::string> Errors;

  std::unique_ptr<ir::Module> M;
  std::unique_ptr<ir::IRBuilder> Builder;

  // Name tables, so each lookup is one hash probe instead of a scan of
  // the module's entities. Functions and globals are filled in pass 1;
  // heap and stack sites never enter Globals. The tables allocate from
  // their own arena: table nodes interleaved with the module's entities
  // on the general heap spread the IR out, and the interpreter then ran
  // the deref_mesh program about 1.7x slower.
  std::pmr::monotonic_buffer_resource TableArena;
  NameTable<Function *> Functions{&TableArena};
  NameTable<MemObject *> Globals{&TableArena};

  // Per-function parsing state.
  Function *CurFn = nullptr;
  bool Terminated = false;
  unsigned ContCounter = 0;
  unsigned ObjCounter = 0;
  NameTable<LabelInfo> Labels{&TableArena};
  /// The current function's variables. Of two same-named parameters the
  /// first wins, as Function::findVariable decides.
  NameTable<Variable *> Locals{&TableArena};
};

} // namespace

void ParserImpl::scanTopLevel() {
  while (!check(TokenKind::Eof)) {
    if (peek().isKeyword("global")) {
      parseGlobalDecl(/*Declare=*/true);
      continue;
    }
    if (peek().isKeyword("func")) {
      advance();
      if (!check(TokenKind::Ident)) {
        error("expected function name after 'func'");
        break;
      }
      std::string_view Name = advance().Text;
      auto [Slot, New] = Functions.try_emplace(Name, nullptr);
      if (!New) {
        error(cat({"redefinition of function '", Name, "'"}));
        break;
      }
      Function *F = Slot->second = M->createFunction(std::string(Name));
      if (!expect(TokenKind::LParen, "'('"))
        break;
      if (!check(TokenKind::RParen)) {
        do {
          if (!check(TokenKind::Ident)) {
            error("expected parameter name");
            break;
          }
          std::string_view PName = advance().Text;
          if (isReservedWord(PName))
            error(cat({"'", PName, "' is reserved and cannot be a parameter"}));
          F->createVariable(std::string(PName), /*IsParam=*/true);
        } while (match(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "')'"))
        break;
      if (!check(TokenKind::LBrace)) {
        error("expected '{', found " + foundDesc());
        break;
      }
      skipBlock();
      continue;
    }
    error("expected 'global' or 'func' at top level");
    break;
  }
}

void ParserImpl::parseGlobalDecl(bool Declare) {
  advance(); // 'global'
  if (!check(TokenKind::Ident)) {
    error("expected global name");
    recover();
    return;
  }
  const Token NameTok = advance();
  const std::string_view Name = NameTok.Text;
  int64_t Size = 1;
  if (match(TokenKind::LBracket)) {
    if (!check(TokenKind::Int)) {
      error("expected size in global declaration");
      recover();
      return;
    }
    Size = advance().IntValue;
    if (!expect(TokenKind::RBracket, "']'")) {
      recover();
      return;
    }
  }
  bool Initialized;
  if (peek().isKeyword("init")) {
    advance();
    Initialized = true;
  } else if (peek().isKeyword("uninit")) {
    advance();
    Initialized = false;
  } else {
    error("expected 'init' or 'uninit' in global declaration");
    recover();
    return;
  }
  bool IsArray = false;
  if (peek().isKeyword("array")) {
    advance();
    IsArray = true;
  }
  if (!expect(TokenKind::Semi, "';'")) {
    recover();
    return;
  }
  if (!Declare)
    return;
  if (Size <= 0 || Size > (1 << 20)) {
    error(cat({"global '", Name, "' has invalid size"}));
    return;
  }
  auto [Slot, New] = Globals.try_emplace(Name, nullptr);
  if (!New) {
    errorAt(NameTok, cat({"redefinition of global '", Name, "'"}));
    return;
  }
  Slot->second = M->createObject(std::string(Name), Region::Global,
                                 static_cast<unsigned>(Size), Initialized,
                                 IsArray);
}

LabelInfo &ParserImpl::lookupLabel(std::string_view Name) {
  auto [It, New] = Labels.try_emplace(Name);
  if (New) {
    It->second.BB = CurFn->createBlock(std::string(Name));
    It->second.RefLine = peek().Line;
  }
  return It->second;
}

void ParserImpl::startBlock(BasicBlock *BB) {
  if (!Terminated)
    Builder->createGoto(BB);
  Builder->setInsertPoint(BB);
  Terminated = false;
}

ir::Variable *ParserImpl::resolveOrCreateDef(std::string_view Name) {
  if (isReservedWord(Name)) {
    error(cat({"'", Name, "' is reserved and cannot be assigned"}));
    return nullptr;
  }
  if (Variable *V = lookup(Locals, Name))
    return V;
  if (lookup(Globals, Name)) {
    error(cat({"cannot assign to global '", Name,
               "' directly; store through a pointer instead"}));
    return nullptr;
  }
  return createLocal(Name);
}

ir::Variable *ParserImpl::createLocal(std::string_view Name) {
  Variable *V = CurFn->createVariable(std::string(Name));
  Locals.emplace(Name, V);
  return V;
}

bool ParserImpl::parseOperand(Operand &Out) {
  if (check(TokenKind::Int)) {
    Out = Operand::constant(advance().IntValue);
    return true;
  }
  if (check(TokenKind::Minus) && peekNext().is(TokenKind::Int)) {
    advance();
    Out = Operand::constant(-advance().IntValue);
    return true;
  }
  if (check(TokenKind::Ident)) {
    std::string_view Name = peek().Text;
    if (Variable *V = lookup(Locals, Name)) {
      advance();
      Out = Operand::var(V);
      return true;
    }
    if (MemObject *G = lookup(Globals, Name)) {
      advance();
      Out = Operand::global(G);
      return true;
    }
    error(cat({"use of undefined name '", Name, "'"}));
    return false;
  }
  error("expected an operand, found " + foundDesc());
  return false;
}

bool ParserImpl::parseBinOpcode(BinOpcode &Out) {
  switch (peek().Kind) {
  case TokenKind::Plus:
    Out = BinOpcode::Add;
    break;
  case TokenKind::Minus:
    Out = BinOpcode::Sub;
    break;
  case TokenKind::Star:
    Out = BinOpcode::Mul;
    break;
  case TokenKind::Slash:
    Out = BinOpcode::Div;
    break;
  case TokenKind::Percent:
    Out = BinOpcode::Rem;
    break;
  case TokenKind::Amp:
    Out = BinOpcode::And;
    break;
  case TokenKind::Pipe:
    Out = BinOpcode::Or;
    break;
  case TokenKind::Caret:
    Out = BinOpcode::Xor;
    break;
  case TokenKind::Shl:
    Out = BinOpcode::Shl;
    break;
  case TokenKind::Shr:
    Out = BinOpcode::Shr;
    break;
  case TokenKind::EqEq:
    Out = BinOpcode::CmpEQ;
    break;
  case TokenKind::NotEq:
    Out = BinOpcode::CmpNE;
    break;
  case TokenKind::Less:
    Out = BinOpcode::CmpLT;
    break;
  case TokenKind::LessEq:
    Out = BinOpcode::CmpLE;
    break;
  case TokenKind::Greater:
    Out = BinOpcode::CmpGT;
    break;
  case TokenKind::GreaterEq:
    Out = BinOpcode::CmpGE;
    break;
  default:
    return false;
  }
  advance();
  return true;
}

void ParserImpl::parseStatement() {
  // Instructions created for this statement cite its first token.
  Builder->setCurrentLoc({peek().Line, peek().Col});

  // Label: IDENT ':'.
  if (check(TokenKind::Ident) && peekNext().is(TokenKind::Colon)) {
    std::string_view Name = peek().Text;
    if (isReservedWord(Name)) {
      error(cat({"'", Name, "' is reserved and cannot be a label"}));
      advance();
      advance();
      return;
    }
    advance();
    advance();
    LabelInfo &Label = lookupLabel(Name);
    if (Label.Defined) {
      error(cat({"redefinition of label '", Name, "'"}));
      return;
    }
    Label.Defined = true;
    if (!Label.BB->empty()) {
      error(cat({"label '", Name, "' already has code"}));
      return;
    }
    startBlock(Label.BB);
    return;
  }

  // Any non-label statement after a terminator starts an unreachable
  // block; create one so parsing can continue (the verifier permits it
  // and removeUnreachableBlocks() cleans it up).
  if (Terminated) {
    BasicBlock *Dead =
        CurFn->createBlock("dead." + std::to_string(ContCounter++));
    Builder->setInsertPoint(Dead);
    Terminated = false;
  }

  // Declaration: 'var' NAME (',' NAME)* ';'. Creates (still undefined)
  // variables up front, so the printer can emit modules whose uses
  // precede their defs textually.
  if (peek().isKeyword("var")) {
    advance();
    do {
      if (!check(TokenKind::Ident)) {
        error("expected variable name in declaration");
        return recover();
      }
      const Token NameTok = advance();
      const std::string_view Name = NameTok.Text;
      if (isReservedWord(Name)) {
        error(cat({"'", Name, "' is reserved and cannot be declared"}));
        return recover();
      }
      if (lookup(Locals, Name) || lookup(Globals, Name)) {
        errorAt(NameTok, cat({"redeclaration of '", Name, "'"}));
        return recover();
      }
      createLocal(Name);
    } while (match(TokenKind::Comma));
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    return;
  }

  // Store: '*' operand '=' operand ';'.
  if (match(TokenKind::Star)) {
    Operand Ptr, Val;
    if (!parseOperand(Ptr))
      return recover();
    if (!expect(TokenKind::Assign, "'='"))
      return recover();
    if (!parseOperand(Val))
      return recover();
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Builder->createStore(Ptr, Val);
    return;
  }

  // Control flow.
  if (peek().isKeyword("if")) {
    advance();
    Operand Cond;
    if (!parseOperand(Cond))
      return recover();
    if (!(peek().isKeyword("goto"))) {
      error("expected 'goto' in if statement");
      return recover();
    }
    advance();
    if (!check(TokenKind::Ident)) {
      error("expected label after 'goto'");
      return recover();
    }
    std::string_view Target = advance().Text;
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    BasicBlock *TrueBB = lookupLabel(Target).BB;
    BasicBlock *Cont =
        CurFn->createBlock("cont." + std::to_string(ContCounter++));
    Builder->createCondBr(Cond, TrueBB, Cont);
    Builder->setInsertPoint(Cont);
    Terminated = false;
    return;
  }
  if (peek().isKeyword("goto")) {
    advance();
    if (!check(TokenKind::Ident)) {
      error("expected label after 'goto'");
      return recover();
    }
    std::string_view Target = advance().Text;
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Builder->createGoto(lookupLabel(Target).BB);
    Terminated = true;
    return;
  }
  if (peek().isKeyword("ret")) {
    advance();
    Operand Val;
    if (!check(TokenKind::Semi)) {
      if (!parseOperand(Val))
        return recover();
    }
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Builder->createRet(Val);
    Terminated = true;
    return;
  }

  // Bare call: IDENT '(' args ')' ';'.
  if (check(TokenKind::Ident) && peekNext().is(TokenKind::LParen)) {
    std::string_view Callee = advance().Text;
    Function *F = lookup(Functions, Callee);
    if (!F) {
      error(cat({"call to undefined function '", Callee, "'"}));
      return recover();
    }
    advance(); // '('
    std::vector<Operand> Args;
    if (!check(TokenKind::RParen)) {
      do {
        Operand Arg;
        if (!parseOperand(Arg))
          return recover();
        Args.push_back(Arg);
      } while (match(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "')'"))
      return recover();
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    if (Args.size() != F->params().size())
      error(cat({"call to '", Callee, "' passes ",
                 std::to_string(Args.size()), " args, expected ",
                 std::to_string(F->params().size())}));
    else
      Builder->createCall(nullptr, F, std::move(Args));
    return;
  }

  // Assignment: IDENT '=' rhs ';'.
  if (check(TokenKind::Ident) && peekNext().is(TokenKind::Assign)) {
    std::string_view DefName = advance().Text;
    advance(); // '='

    // RHS: alloc.
    if (peek().isKeyword("alloc")) {
      advance();
      Region R;
      if (peek().isKeyword("stack")) {
        R = Region::Stack;
      } else if (peek().isKeyword("heap")) {
        R = Region::Heap;
      } else {
        error("expected 'stack' or 'heap' after 'alloc'");
        return recover();
      }
      advance();
      if (!check(TokenKind::Int)) {
        error("expected field count in alloc");
        return recover();
      }
      int64_t Fields = advance().IntValue;
      bool Initialized;
      if (peek().isKeyword("init")) {
        Initialized = true;
      } else if (peek().isKeyword("uninit")) {
        Initialized = false;
      } else {
        error("expected 'init' or 'uninit' in alloc");
        return recover();
      }
      advance();
      bool IsArray = false;
      if (peek().isKeyword("array")) {
        advance();
        IsArray = true;
      }
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      if (Fields <= 0 || Fields > (1 << 20)) {
        error("alloc has invalid field count");
        return;
      }
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createAlloc(Def, R, static_cast<unsigned>(Fields), Initialized,
                           IsArray,
                           cat({CurFn->getName(), ".", DefName, ".",
                                std::to_string(ObjCounter++)}));
      return;
    }

    // RHS: gep (constant or variable index).
    if (peek().isKeyword("gep")) {
      advance();
      Operand Base, Index;
      if (!parseOperand(Base))
        return recover();
      if (!expect(TokenKind::Comma, "','"))
        return recover();
      if (!parseOperand(Index))
        return recover();
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      if (Index.isConst() &&
          (Index.getConst() < 0 || Index.getConst() > (1 << 20))) {
        error("gep has invalid field index");
        return;
      }
      if (Index.isGlobal()) {
        error("gep index cannot be a global address");
        return;
      }
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createFieldAddr(Def, Base, Index);
      return;
    }

    // RHS: load.
    if (match(TokenKind::Star)) {
      Operand Ptr;
      if (!parseOperand(Ptr))
        return recover();
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createLoad(Def, Ptr);
      return;
    }

    // RHS: call.
    Function *F = check(TokenKind::Ident) && peekNext().is(TokenKind::LParen)
                      ? lookup(Functions, peek().Text)
                      : nullptr;
    if (F) {
      std::string_view Callee = advance().Text;
      advance(); // '('
      std::vector<Operand> Args;
      if (!check(TokenKind::RParen)) {
        do {
          Operand Arg;
          if (!parseOperand(Arg))
            return recover();
          Args.push_back(Arg);
        } while (match(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "')'"))
        return recover();
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      if (Args.size() != F->params().size()) {
        error(cat({"call to '", Callee, "' passes ",
                   std::to_string(Args.size()), " args, expected ",
                   std::to_string(F->params().size())}));
        return;
      }
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createCall(Def, F, std::move(Args));
      return;
    }

    // RHS: operand (binop operand)?.
    Operand LHS;
    if (!parseOperand(LHS))
      return recover();
    BinOpcode Op;
    if (parseBinOpcode(Op)) {
      Operand RHS;
      if (!parseOperand(RHS))
        return recover();
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createBinOp(Def, Op, LHS, RHS);
      return;
    }
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Variable *Def = resolveOrCreateDef(DefName);
    if (!Def)
      return;
    Builder->createCopy(Def, LHS);
    return;
  }

  error("expected a statement, found " + foundDesc());
  recover();
}

void ParserImpl::parseFunctionBody(Function *F) {
  CurFn = F;
  Labels.clear();
  ContCounter = 0;
  Locals.clear();
  for (Variable *P : F->params())
    Locals.emplace(P->getName(), P);

  BasicBlock *Entry = F->createBlock("entry");
  Builder->setInsertPoint(Entry);
  Terminated = false;

  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof) &&
         Errors.size() < 20)
    parseStatement();
  // The implicit return cites the closing brace.
  Builder->setCurrentLoc({peek().Line, peek().Col});
  expect(TokenKind::RBrace, "'}'");

  if (!Terminated)
    Builder->createRet(Operand());

  // Report undefined labels in name order, and give each one's block a
  // body so the verifier has a single failure mode: this diagnostic.
  std::vector<std::pair<std::string_view, const LabelInfo *>> Undefined;
  for (const auto &[Name, Label] : Labels)
    if (!Label.Defined)
      Undefined.emplace_back(Name, &Label);
  std::sort(Undefined.begin(), Undefined.end());
  for (const auto &[Name, Label] : Undefined) {
    Errors.push_back(cat({std::to_string(Label->RefLine),
                          ":1: undefined label '", Name, "' in function '",
                          F->getName(), "'"}));
    Builder->setInsertPoint(Label->BB);
    Builder->createRet(Operand());
  }
  CurFn = nullptr;
}

void ParserImpl::parseTopLevel() {
  while (!check(TokenKind::Eof) && Errors.size() < 20) {
    if (peek().isKeyword("global")) {
      parseGlobalDecl(/*Declare=*/false);
      continue;
    }
    if (peek().isKeyword("func")) {
      advance();
      std::string_view Name = advance().Text; // validated in pass 1
      Function *F = lookup(Functions, Name);
      // Skip the parameter list (created in pass 1).
      while (!check(TokenKind::LBrace) && !check(TokenKind::Eof))
        advance();
      if (!expect(TokenKind::LBrace, "'{'"))
        return;
      if (!F)
        return; // Pass 1 already diagnosed.
      parseFunctionBody(F);
      continue;
    }
    return; // Pass 1 already diagnosed.
  }
}

ParseResult ParserImpl::run() {
  ParseResult Result;
  M = std::make_unique<ir::Module>();
  Builder = std::make_unique<ir::IRBuilder>(*M);

  scanTopLevel();
  restart();
  if (Errors.empty())
    parseTopLevel();
  // A lexical error anywhere in the file is the only diagnostic. Pass 1
  // skipped the function bodies, so lex whatever pass 2 stopped short of:
  // the whole file when pass 1 failed.
  while (!check(TokenKind::Eof))
    advance();
  if (LexError) {
    Result.Errors = {cat({std::to_string(LexError->Line), ":",
                          std::to_string(LexError->Col), ": ",
                          LexError->Text})};
    return Result;
  }

  Result.Errors = std::move(Errors);
  if (!Result.Errors.empty())
    return Result;

  M->renumber();
  Result.M = std::move(M);
  return Result;
}

ParseResult parser::parseModule(std::string_view Source) {
  return ParserImpl(Source).run();
}

std::unique_ptr<ir::Module>
parser::parseModuleOrAbort(std::string_view Source) {
  ParseResult Result = parseModule(Source);
  if (!Result.succeeded()) {
    for (const std::string &E : Result.Errors)
      errs() << "parse error: " << E << '\n';
    std::abort();
  }
  ir::verifyModuleOrAbort(*Result.M);
  return std::move(Result.M);
}
