//===- parser/Lexer.h - TinyC tokenizer -------------------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the textual TinyC syntax. `//` starts a line comment.
///
/// The lexer produces one token per next() call and allocates nothing but
/// an error message: a token's text is a view into the source (or, for the
/// one error token, into the lexer's own message), so the source must
/// outlive the tokens.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_PARSER_LEXER_H
#define USHER_PARSER_LEXER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace usher {
namespace parser {

/// Token categories produced by the lexer.
enum class TokenKind : uint8_t {
  Eof,
  Ident,
  Int,
  // Punctuation.
  Assign,    // =
  Semi,      // ;
  Comma,     // ,
  LParen,    // (
  RParen,    // )
  LBrace,    // {
  RBrace,    // }
  LBracket,  // [
  RBracket,  // ]
  Colon,     // :
  Star,      // *
  // Operators (other than Star, which doubles as dereference).
  Plus,      // +
  Minus,     // -
  Slash,     // /
  Percent,   // %
  Amp,       // &
  Pipe,      // |
  Caret,     // ^
  Shl,       // <<
  Shr,       // >>
  EqEq,      // ==
  NotEq,     // !=
  Less,      // <
  LessEq,    // <=
  Greater,   // >
  GreaterEq, // >=
  Error
};

/// A single token with source coordinates.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  /// The spelling in the source; for an Error token, the message.
  std::string_view Text;
  int64_t IntValue = 0;
  unsigned Line = 0;
  unsigned Col = 0;

  bool is(TokenKind K) const { return Kind == K; }
  /// True for an identifier spelled exactly \p Keyword.
  bool isKeyword(std::string_view Keyword) const {
    return Kind == TokenKind::Ident && Text == Keyword;
  }
};

/// Tokenizes a source text on demand. After the last token next() returns
/// Eof; on a lexical error it returns a single Error token carrying a
/// message at the offending position, and Eof from then on.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Src(Source) {}
  Lexer(const Lexer &) = delete;
  Lexer &operator=(const Lexer &) = delete;

  /// The next token.
  Token next();

  /// Skips past the '}' that closes a block whose '{' was the last token
  /// returned (or to the end of input), producing no tokens for it and
  /// reporting no lexical error inside it.
  void skipBlock();

  /// Restarts at the beginning of the source (the error state included).
  void rewind() {
    Pos = LineStart = 0;
    Line = 1;
    Failed = false;
  }

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  void skipTrivia();
  Token fail(Token T, std::string Message);

  std::string_view Src;
  size_t Pos = 0;
  /// Offset of the first character of the current line; columns are
  /// Pos - LineStart + 1.
  size_t LineStart = 0;
  unsigned Line = 1;
  bool Failed = false;
  /// The message of the Error token, which views it.
  std::string ErrorMessage;
};

} // namespace parser
} // namespace usher

#endif // USHER_PARSER_LEXER_H
