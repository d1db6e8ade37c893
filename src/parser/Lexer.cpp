//===- parser/Lexer.cpp - TinyC tokenizer ---------------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/Decimal.h"

#include <cstdint>

using namespace usher;
using namespace usher::parser;

// ASCII classification, as <cctype> decides it in the "C" locale, without
// a call into the C library per character.
static bool isDigit(char C) { return C >= '0' && C <= '9'; }
static bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
static bool isIdentChar(char C) {
  return isIdentStart(C) || isDigit(C) || C == '.';
}

void Lexer::skipTrivia() {
  while (Pos < Src.size()) {
    char C = Src[Pos];
    if (C == '\n') {
      LineStart = ++Pos;
      ++Line;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      size_t End = Src.find('\n', Pos);
      Pos = End == std::string_view::npos ? Src.size() : End;
      continue;
    }
    break;
  }
}

void Lexer::skipBlock() {
  // No token but a brace contains a brace character, and TinyC has no
  // string literals, so counting the characters outside comments matches
  // the braces the tokens would.
  unsigned Depth = 1;
  while (Pos < Src.size()) {
    switch (Src[Pos++]) {
    case '\n':
      LineStart = Pos;
      ++Line;
      break;
    case '{':
      ++Depth;
      break;
    case '}':
      if (--Depth == 0)
        return;
      break;
    case '/':
      if (peek() == '/') {
        size_t End = Src.find('\n', Pos);
        Pos = End == std::string_view::npos ? Src.size() : End;
      }
      break;
    }
  }
}

Token Lexer::fail(Token T, std::string Message) {
  Failed = true;
  ErrorMessage = std::move(Message);
  T.Kind = TokenKind::Error;
  T.Text = ErrorMessage;
  return T;
}

Token Lexer::next() {
  if (!Failed)
    skipTrivia();
  Token T;
  T.Line = Line;
  T.Col = static_cast<unsigned>(Pos - LineStart + 1);
  if (Failed || Pos >= Src.size())
    return T; // Eof.

  const size_t Start = Pos;
  const char C = Src[Pos++];
  auto Spelled = [&](TokenKind K) {
    T.Kind = K;
    T.Text = Src.substr(Start, Pos - Start);
    return T;
  };
  // Consumes the second character of a two-character operator.
  auto Pair = [&](TokenKind K) {
    ++Pos;
    return Spelled(K);
  };

  if (isIdentStart(C)) {
    while (isIdentChar(peek()))
      ++Pos;
    return Spelled(TokenKind::Ident);
  }
  if (isDigit(C)) {
    while (isDigit(peek()))
      ++Pos;
    uint64_t Value = 0;
    if (!parseDecimal(Src.substr(Start, Pos - Start), INT64_MAX, Value))
      return fail(T, "integer literal out of range");
    T.IntValue = static_cast<int64_t>(Value);
    return Spelled(TokenKind::Int);
  }

  switch (C) {
  case ';':
    return Spelled(TokenKind::Semi);
  case ',':
    return Spelled(TokenKind::Comma);
  case '(':
    return Spelled(TokenKind::LParen);
  case ')':
    return Spelled(TokenKind::RParen);
  case '{':
    return Spelled(TokenKind::LBrace);
  case '}':
    return Spelled(TokenKind::RBrace);
  case '[':
    return Spelled(TokenKind::LBracket);
  case ']':
    return Spelled(TokenKind::RBracket);
  case ':':
    return Spelled(TokenKind::Colon);
  case '*':
    return Spelled(TokenKind::Star);
  case '+':
    return Spelled(TokenKind::Plus);
  case '-':
    return Spelled(TokenKind::Minus);
  case '/':
    return Spelled(TokenKind::Slash);
  case '%':
    return Spelled(TokenKind::Percent);
  case '&':
    return Spelled(TokenKind::Amp);
  case '|':
    return Spelled(TokenKind::Pipe);
  case '^':
    return Spelled(TokenKind::Caret);
  case '=':
    return peek() == '=' ? Pair(TokenKind::EqEq) : Spelled(TokenKind::Assign);
  case '!':
    if (peek() == '=')
      return Pair(TokenKind::NotEq);
    return fail(T, "unexpected character '!'");
  case '<':
    if (peek() == '<')
      return Pair(TokenKind::Shl);
    return peek() == '=' ? Pair(TokenKind::LessEq) : Spelled(TokenKind::Less);
  case '>':
    if (peek() == '>')
      return Pair(TokenKind::Shr);
    return peek() == '=' ? Pair(TokenKind::GreaterEq)
                         : Spelled(TokenKind::Greater);
  default:
    return fail(T, std::string("unexpected character '") + C + "'");
  }
}
