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

#include <cstdlib>
#include <map>
#include <memory_resource>
#include <set>
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
bool isReservedWord(const std::string &Name) {
  static const std::set<std::string> Reserved = {
      "global", "func", "alloc", "gep",    "if",     "goto",
      "ret",    "stack", "heap",  "init",  "uninit", "array",
      "var"};
  return Reserved.count(Name) != 0;
}

/// The entity \p Table maps \p Name to, or null.
template <typename T>
T *lookup(const std::pmr::unordered_map<std::string, T *> &Table,
          const std::string &Name) {
  auto It = Table.find(Name);
  return It == Table.end() ? nullptr : It->second;
}

class ParserImpl {
public:
  ParserImpl(std::string_view Source) : Tokens(tokenize(Source)) {}

  ParseResult run();

private:
  // Token cursor helpers.
  const Token &peek(size_t Ahead = 0) const {
    size_t Idx = Pos + Ahead;
    return Idx < Tokens.size() ? Tokens[Idx] : Tokens.back();
  }
  const Token &advance() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }
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
    return "'" + T.Text + "'";
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

  Variable *resolveOrCreateDef(const std::string &Name);
  Variable *createLocal(const std::string &Name);
  BasicBlock *lookupLabel(const std::string &Name);
  void startBlock(BasicBlock *BB);

  std::vector<Token> Tokens;
  size_t Pos = 0;
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
  std::pmr::unordered_map<std::string, Function *> Functions{&TableArena};
  std::pmr::unordered_map<std::string, MemObject *> Globals{&TableArena};

  // Per-function parsing state.
  Function *CurFn = nullptr;
  bool Terminated = false;
  unsigned ContCounter = 0;
  unsigned ObjCounter = 0;
  std::map<std::string, BasicBlock *> Labels;
  std::set<std::string> DefinedLabels;
  std::map<std::string, unsigned> LabelRefLines;
  /// The current function's variables. Of two same-named parameters the
  /// first wins, as Function::findVariable decides.
  std::pmr::unordered_map<std::string, Variable *> Locals{&TableArena};
};

} // namespace

void ParserImpl::scanTopLevel() {
  size_t Saved = Pos;
  while (!check(TokenKind::Eof) && !check(TokenKind::Error)) {
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
      std::string Name = advance().Text;
      auto [Slot, New] = Functions.try_emplace(Name, nullptr);
      if (!New) {
        error("redefinition of function '" + Name + "'");
        break;
      }
      Function *F = Slot->second = M->createFunction(Name);
      if (!expect(TokenKind::LParen, "'('"))
        break;
      if (!check(TokenKind::RParen)) {
        do {
          if (!check(TokenKind::Ident)) {
            error("expected parameter name");
            break;
          }
          std::string PName = advance().Text;
          if (isReservedWord(PName))
            error("'" + PName + "' is reserved and cannot be a parameter");
          F->createVariable(PName, /*IsParam=*/true);
        } while (match(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "')'"))
        break;
      if (!expect(TokenKind::LBrace, "'{'"))
        break;
      // Skip to the matching brace.
      unsigned Depth = 1;
      while (Depth > 0 && !check(TokenKind::Eof)) {
        if (check(TokenKind::LBrace))
          ++Depth;
        else if (check(TokenKind::RBrace))
          --Depth;
        advance();
      }
      continue;
    }
    error("expected 'global' or 'func' at top level");
    break;
  }
  Pos = Saved;
}

void ParserImpl::parseGlobalDecl(bool Declare) {
  advance(); // 'global'
  if (!check(TokenKind::Ident)) {
    error("expected global name");
    recover();
    return;
  }
  const Token &NameTok = advance();
  const std::string &Name = NameTok.Text;
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
    error("global '" + Name + "' has invalid size");
    return;
  }
  auto [Slot, New] = Globals.try_emplace(Name, nullptr);
  if (!New) {
    errorAt(NameTok, "redefinition of global '" + Name + "'");
    return;
  }
  Slot->second = M->createObject(Name, Region::Global,
                                 static_cast<unsigned>(Size), Initialized,
                                 IsArray);
}

ir::BasicBlock *ParserImpl::lookupLabel(const std::string &Name) {
  auto It = Labels.find(Name);
  if (It != Labels.end())
    return It->second;
  BasicBlock *BB = CurFn->createBlock(Name);
  Labels[Name] = BB;
  LabelRefLines[Name] = peek().Line;
  return BB;
}

void ParserImpl::startBlock(BasicBlock *BB) {
  if (!Terminated)
    Builder->createGoto(BB);
  Builder->setInsertPoint(BB);
  Terminated = false;
}

ir::Variable *ParserImpl::resolveOrCreateDef(const std::string &Name) {
  if (isReservedWord(Name)) {
    error("'" + Name + "' is reserved and cannot be assigned");
    return nullptr;
  }
  if (Variable *V = lookup(Locals, Name))
    return V;
  if (lookup(Globals, Name)) {
    error("cannot assign to global '" + Name +
          "' directly; store through a pointer instead");
    return nullptr;
  }
  return createLocal(Name);
}

ir::Variable *ParserImpl::createLocal(const std::string &Name) {
  Variable *V = CurFn->createVariable(Name);
  Locals.emplace(Name, V);
  return V;
}

bool ParserImpl::parseOperand(Operand &Out) {
  if (check(TokenKind::Int)) {
    Out = Operand::constant(advance().IntValue);
    return true;
  }
  if (check(TokenKind::Minus) && peek(1).is(TokenKind::Int)) {
    advance();
    Out = Operand::constant(-advance().IntValue);
    return true;
  }
  if (check(TokenKind::Ident)) {
    std::string Name = peek().Text;
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
    error("use of undefined name '" + Name + "'");
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
  if (check(TokenKind::Ident) && peek(1).is(TokenKind::Colon)) {
    std::string Name = peek().Text;
    if (isReservedWord(Name)) {
      error("'" + Name + "' is reserved and cannot be a label");
      advance();
      advance();
      return;
    }
    advance();
    advance();
    BasicBlock *BB = lookupLabel(Name);
    if (!DefinedLabels.insert(Name).second) {
      error("redefinition of label '" + Name + "'");
      return;
    }
    if (!BB->empty()) {
      error("label '" + Name + "' already has code");
      return;
    }
    startBlock(BB);
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
      const Token &NameTok = advance();
      const std::string &Name = NameTok.Text;
      if (isReservedWord(Name)) {
        error("'" + Name + "' is reserved and cannot be declared");
        return recover();
      }
      if (lookup(Locals, Name) || lookup(Globals, Name)) {
        errorAt(NameTok, "redeclaration of '" + Name + "'");
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
    std::string Target = advance().Text;
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    BasicBlock *TrueBB = lookupLabel(Target);
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
    std::string Target = advance().Text;
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Builder->createGoto(lookupLabel(Target));
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
  if (check(TokenKind::Ident) && peek(1).is(TokenKind::LParen)) {
    std::string Callee = advance().Text;
    Function *F = lookup(Functions, Callee);
    if (!F) {
      error("call to undefined function '" + Callee + "'");
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
      error("call to '" + Callee + "' passes " + std::to_string(Args.size()) +
            " args, expected " + std::to_string(F->params().size()));
    else
      Builder->createCall(nullptr, F, std::move(Args));
    return;
  }

  // Assignment: IDENT '=' rhs ';'.
  if (check(TokenKind::Ident) && peek(1).is(TokenKind::Assign)) {
    std::string DefName = advance().Text;
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
      std::string ObjName =
          CurFn->getName() + "." + DefName + "." + std::to_string(ObjCounter++);
      Builder->createAlloc(Def, R, static_cast<unsigned>(Fields), Initialized,
                           IsArray, ObjName);
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
    Function *F = check(TokenKind::Ident) && peek(1).is(TokenKind::LParen)
                      ? lookup(Functions, peek().Text)
                      : nullptr;
    if (F) {
      std::string Callee = advance().Text;
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
        error("call to '" + Callee + "' passes " +
              std::to_string(Args.size()) + " args, expected " +
              std::to_string(F->params().size()));
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
  DefinedLabels.clear();
  LabelRefLines.clear();
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

  // Give every block created for an undefined forward label a body so the
  // verifier has a single failure mode: our diagnostic below.
  for (const auto &[Name, BB] : Labels) {
    if (DefinedLabels.count(Name))
      continue;
    Errors.push_back(std::to_string(LabelRefLines[Name]) +
                     ":1: undefined label '" + Name + "' in function '" +
                     F->getName() + "'");
    Builder->setInsertPoint(BB);
    Builder->createRet(Operand());
  }
  CurFn = nullptr;
}

void ParserImpl::parseTopLevel() {
  while (!check(TokenKind::Eof) && !check(TokenKind::Error) &&
         Errors.size() < 20) {
    if (peek().isKeyword("global")) {
      parseGlobalDecl(/*Declare=*/false);
      continue;
    }
    if (peek().isKeyword("func")) {
      advance();
      std::string Name = advance().Text; // validated in pass 1
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
  if (!Tokens.empty() && Tokens.back().is(TokenKind::Error)) {
    const Token &T = Tokens.back();
    Result.Errors.push_back(std::to_string(T.Line) + ":" +
                            std::to_string(T.Col) + ": " + T.Text);
    return Result;
  }

  M = std::make_unique<ir::Module>();
  Builder = std::make_unique<ir::IRBuilder>(*M);

  scanTopLevel();
  if (Errors.empty())
    parseTopLevel();

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
