//===- parser/Lexer.cpp - TinyC tokenizer ---------------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/Decimal.h"

#include <cctype>
#include <cstdint>

using namespace usher;
using namespace usher::parser;

namespace {

class LexerImpl {
public:
  explicit LexerImpl(std::string_view Source) : Src(Source) {}

  std::vector<Token> run();

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  char advance() {
    char C = Src[Pos++];
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }
  bool atEnd() const { return Pos >= Src.size(); }

  void push(TokenKind K, std::string Text) {
    Token T;
    T.Kind = K;
    T.Text = std::move(Text);
    T.Line = TokLine;
    T.Col = TokCol;
    Tokens.push_back(std::move(T));
  }

  void pushInt(int64_t Value, std::string Text) {
    push(TokenKind::Int, std::move(Text));
    Tokens.back().IntValue = Value;
  }

  void skipTrivia();
  bool lexOne();

  std::string_view Src;
  size_t Pos = 0;
  unsigned Line = 1, Col = 1;
  unsigned TokLine = 1, TokCol = 1;
  std::vector<Token> Tokens;
};

} // namespace

void LexerImpl::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    break;
  }
}

bool LexerImpl::lexOne() {
  skipTrivia();
  TokLine = Line;
  TokCol = Col;
  if (atEnd()) {
    push(TokenKind::Eof, "");
    return false;
  }

  char C = advance();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Text(1, C);
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_' ||
           peek() == '.')
      Text.push_back(advance());
    push(TokenKind::Ident, std::move(Text));
    return true;
  }
  if (std::isdigit(static_cast<unsigned char>(C))) {
    std::string Text(1, C);
    while (std::isdigit(static_cast<unsigned char>(peek())))
      Text.push_back(advance());
    uint64_t Value = 0;
    if (!parseDecimal(Text, INT64_MAX, Value)) {
      push(TokenKind::Error, "integer literal out of range");
      return false;
    }
    pushInt(static_cast<int64_t>(Value), std::move(Text));
    return true;
  }

  switch (C) {
  case ';':
    push(TokenKind::Semi, ";");
    return true;
  case ',':
    push(TokenKind::Comma, ",");
    return true;
  case '(':
    push(TokenKind::LParen, "(");
    return true;
  case ')':
    push(TokenKind::RParen, ")");
    return true;
  case '{':
    push(TokenKind::LBrace, "{");
    return true;
  case '}':
    push(TokenKind::RBrace, "}");
    return true;
  case '[':
    push(TokenKind::LBracket, "[");
    return true;
  case ']':
    push(TokenKind::RBracket, "]");
    return true;
  case ':':
    push(TokenKind::Colon, ":");
    return true;
  case '*':
    push(TokenKind::Star, "*");
    return true;
  case '+':
    push(TokenKind::Plus, "+");
    return true;
  case '-':
    push(TokenKind::Minus, "-");
    return true;
  case '/':
    push(TokenKind::Slash, "/");
    return true;
  case '%':
    push(TokenKind::Percent, "%");
    return true;
  case '&':
    push(TokenKind::Amp, "&");
    return true;
  case '|':
    push(TokenKind::Pipe, "|");
    return true;
  case '^':
    push(TokenKind::Caret, "^");
    return true;
  case '=':
    if (peek() == '=') {
      advance();
      push(TokenKind::EqEq, "==");
    } else {
      push(TokenKind::Assign, "=");
    }
    return true;
  case '!':
    if (peek() == '=') {
      advance();
      push(TokenKind::NotEq, "!=");
      return true;
    }
    push(TokenKind::Error, "unexpected character '!'");
    return false;
  case '<':
    if (peek() == '<') {
      advance();
      push(TokenKind::Shl, "<<");
    } else if (peek() == '=') {
      advance();
      push(TokenKind::LessEq, "<=");
    } else {
      push(TokenKind::Less, "<");
    }
    return true;
  case '>':
    if (peek() == '>') {
      advance();
      push(TokenKind::Shr, ">>");
    } else if (peek() == '=') {
      advance();
      push(TokenKind::GreaterEq, ">=");
    } else {
      push(TokenKind::Greater, ">");
    }
    return true;
  default:
    push(TokenKind::Error, std::string("unexpected character '") + C + "'");
    return false;
  }
}

std::vector<Token> LexerImpl::run() {
  while (lexOne()) {
  }
  if (Tokens.empty() || (!Tokens.back().is(TokenKind::Eof) &&
                         !Tokens.back().is(TokenKind::Error))) {
    Token T;
    T.Kind = TokenKind::Eof;
    T.Line = Line;
    T.Col = Col;
    Tokens.push_back(std::move(T));
  }
  return std::move(Tokens);
}

std::vector<Token> parser::tokenize(std::string_view Source) {
  return LexerImpl(Source).run();
}
