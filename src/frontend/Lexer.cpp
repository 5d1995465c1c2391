//===- frontend/Lexer.cpp ---------------------------------------------------==//

#include "frontend/Lexer.h"

#include "support/Format.h"

#include <string>
#include <utility>

using namespace ucc;

const char *ucc::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Ident:
    return "identifier";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::KwInt:
    return "'int'";
  case TokKind::KwVoid:
    return "'void'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwBreak:
    return "'break'";
  case TokKind::KwContinue:
    return "'continue'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Assign:
    return "'='";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Amp:
    return "'&'";
  case TokKind::Pipe:
    return "'|'";
  case TokKind::Caret:
    return "'^'";
  case TokKind::Tilde:
    return "'~'";
  case TokKind::Bang:
    return "'!'";
  case TokKind::Shl:
    return "'<<'";
  case TokKind::Shr:
    return "'>>'";
  case TokKind::AmpAmp:
    return "'&&'";
  case TokKind::PipePipe:
    return "'||'";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Ge:
    return "'>='";
  }
  return "?";
}

namespace {

// ASCII character classes. MiniC source is ASCII; unlike <cctype> these
// read no locale, and every other byte is a stray character.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) { return (C | 0x20) >= 'a' && (C | 0x20) <= 'z'; }
bool isIdentChar(char C) { return isAlpha(C) || isDigit(C) || C == '_'; }
bool isHexDigit(char C) {
  return isDigit(C) || ((C | 0x20) >= 'a' && (C | 0x20) <= 'f');
}

/// The keyword \p Word spells, or Ident. A length check rejects most
/// candidates before any character is compared.
TokKind keywordKind(std::string_view Word) {
  static constexpr std::pair<std::string_view, TokKind> Keywords[] = {
      {"int", TokKind::KwInt},       {"void", TokKind::KwVoid},
      {"if", TokKind::KwIf},         {"else", TokKind::KwElse},
      {"while", TokKind::KwWhile},   {"for", TokKind::KwFor},
      {"return", TokKind::KwReturn}, {"break", TokKind::KwBreak},
      {"continue", TokKind::KwContinue},
  };
  for (const auto &[Spelling, Kind] : Keywords)
    if (Word == Spelling)
      return Kind;
  return TokKind::Ident;
}

class LexerImpl {
public:
  LexerImpl(std::string_view Source, DiagnosticEngine &Diag)
      : Src(Source), Diag(Diag) {}

  std::vector<Token> run() {
    std::vector<Token> Out;
    // MiniC runs 2-3 source bytes per token, so this rarely regrows.
    Out.reserve(Src.size() / 2 + 1);
    do {
      Out.push_back(next());
    } while (Out.back().Kind != TokKind::Eof);
    return Out;
  }

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

  SourceLoc here() const { return SourceLoc{Line, Col}; }

  void skipTrivia() {
    while (Pos < Src.size()) {
      char C = peek();
      if (isSpace(C)) {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (Pos < Src.size() && peek() != '\n')
          advance();
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        SourceLoc Start = here();
        advance();
        advance();
        bool Closed = false;
        while (Pos < Src.size()) {
          if (peek() == '*' && peek(1) == '/') {
            advance();
            advance();
            Closed = true;
            break;
          }
          advance();
        }
        if (!Closed)
          Diag.error(Start, "unterminated block comment");
        continue;
      }
      break;
    }
  }

  Token make(TokKind Kind, SourceLoc Loc) {
    Token T;
    T.Kind = Kind;
    T.Offset = static_cast<uint32_t>(TokStart);
    T.Loc = Loc;
    return T;
  }

  /// Lexes the token after any trivia. A stray character is reported and
  /// lexing resumes past it, trivia first; this is a loop, so a run of
  /// stray characters of any length costs no stack.
  Token next() {
    while (true) {
      skipTrivia();
      TokStart = Pos;
      SourceLoc Loc = here();
      if (Pos >= Src.size())
        return make(TokKind::Eof, Loc);

      char C = advance();
      if (isAlpha(C) || C == '_')
        return lexIdent(Loc);
      if (isDigit(C))
        return lexNumber(C, Loc);

      auto twoChar = [&](char Next, TokKind Two, TokKind One) {
        if (peek() == Next) {
          advance();
          return make(Two, Loc);
        }
        return make(One, Loc);
      };

      switch (C) {
      case '(':
        return make(TokKind::LParen, Loc);
      case ')':
        return make(TokKind::RParen, Loc);
      case '{':
        return make(TokKind::LBrace, Loc);
      case '}':
        return make(TokKind::RBrace, Loc);
      case '[':
        return make(TokKind::LBracket, Loc);
      case ']':
        return make(TokKind::RBracket, Loc);
      case ',':
        return make(TokKind::Comma, Loc);
      case ';':
        return make(TokKind::Semi, Loc);
      case '+':
        return make(TokKind::Plus, Loc);
      case '-':
        return make(TokKind::Minus, Loc);
      case '*':
        return make(TokKind::Star, Loc);
      case '/':
        return make(TokKind::Slash, Loc);
      case '%':
        return make(TokKind::Percent, Loc);
      case '^':
        return make(TokKind::Caret, Loc);
      case '~':
        return make(TokKind::Tilde, Loc);
      case '&':
        return twoChar('&', TokKind::AmpAmp, TokKind::Amp);
      case '|':
        return twoChar('|', TokKind::PipePipe, TokKind::Pipe);
      case '=':
        return twoChar('=', TokKind::EqEq, TokKind::Assign);
      case '!':
        return twoChar('=', TokKind::NotEq, TokKind::Bang);
      case '<':
        if (peek() == '<') {
          advance();
          return make(TokKind::Shl, Loc);
        }
        return twoChar('=', TokKind::Le, TokKind::Lt);
      case '>':
        if (peek() == '>') {
          advance();
          return make(TokKind::Shr, Loc);
        }
        return twoChar('=', TokKind::Ge, TokKind::Gt);
      default:
        Diag.error(Loc, format("unexpected character '%c'", C));
        break;
      }
    }
  }

  /// Lexes the identifier or keyword whose first character was just read.
  Token lexIdent(SourceLoc Loc) {
    size_t Start = Pos - 1;
    size_t End = Pos;
    while (End < Src.size() && isIdentChar(Src[End]))
      ++End;
    Col += static_cast<unsigned>(End - Pos); // no newline inside a word
    Pos = End;
    std::string_view Word = Src.substr(Start, End - Start);
    Token T = make(keywordKind(Word), Loc);
    T.Text = Word;
    return T;
  }

  /// Lexes the literal whose first digit was just read. Accumulation stops
  /// once the value passes 16 bits, so no spelling can overflow it, and
  /// the range error quotes the literal as written.
  Token lexNumber(char First, SourceLoc Loc) {
    size_t Start = Pos - 1;
    int64_t Value = 0;
    auto accumulate = [&Value](int Base, int Digit) {
      if (Value <= 0xffff)
        Value = Value * Base + Digit;
    };
    if (First == '0' && (peek() == 'x' || peek() == 'X')) {
      advance();
      bool AnyDigit = false;
      while (isHexDigit(peek())) {
        char D = advance();
        accumulate(16, isDigit(D) ? D - '0' : (D | 0x20) - 'a' + 10);
        AnyDigit = true;
      }
      if (!AnyDigit)
        Diag.error(Loc, "hex literal requires at least one digit");
    } else {
      Value = First - '0';
      while (isDigit(peek()))
        accumulate(10, advance() - '0');
    }
    if (Value > 0xffff) {
      std::string Spelling(Src.substr(Start, Pos - Start));
      Diag.error(Loc, "integer literal " + Spelling + " exceeds 16 bits");
    }
    Token T = make(TokKind::IntLit, Loc);
    T.IntValue = Value;
    return T;
  }

  std::string_view Src;
  DiagnosticEngine &Diag;
  size_t Pos = 0;
  size_t TokStart = 0; ///< offset of the token being lexed
  unsigned Line = 1;
  unsigned Col = 1;
};

} // namespace

std::vector<Token> ucc::lex(std::string_view Source,
                            DiagnosticEngine &Diag) {
  return LexerImpl(Source, Diag).run();
}
