//===- support/Json.cpp - minimal JSON document model ---------------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser and the serializer. Numbers that hold exact
/// integers print as integers (no exponent), so counters survive a
/// parse/serialize round trip byte-identically.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Format.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

using namespace ucc;
using namespace ucc::json;

Value Value::boolean(bool V) {
  Value Out;
  Out.K = Bool;
  Out.B = V;
  return Out;
}

Value Value::number(double V) {
  Value Out;
  Out.K = Number;
  Out.Num = V;
  return Out;
}

Value Value::string(std::string V) {
  Value Out;
  Out.K = String;
  Out.Str = std::move(V);
  return Out;
}

Value Value::array() {
  Value Out;
  Out.K = Array;
  return Out;
}

Value Value::object() {
  Value Out;
  Out.K = Object;
  return Out;
}

const Value *Value::find(const std::string &Key) const {
  if (K != Object)
    return nullptr;
  for (const auto &[Name, Member] : Obj)
    if (Name == Key)
      return &Member;
  return nullptr;
}

Value *Value::find(const std::string &Key) {
  return const_cast<Value *>(
      static_cast<const Value *>(this)->find(Key));
}

Value &Value::set(const std::string &Key, Value V) {
  if (Value *Existing = find(Key)) {
    *Existing = std::move(V);
    return *Existing;
  }
  Obj.emplace_back(Key, std::move(V));
  return Obj.back().second;
}

double Value::numberOr(const std::string &Key, double Default) const {
  const Value *V = find(Key);
  return V && V->K == Number ? V->Num : Default;
}

std::string Value::stringOr(const std::string &Key,
                            const std::string &Default) const {
  const Value *V = find(Key);
  return V && V->K == String ? V->Str : Default;
}

std::string json::escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += format("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

namespace {

std::string numberToString(double V) {
  if (std::isfinite(V) && V == std::floor(V) && std::fabs(V) < 9.0e15)
    return format("%lld", static_cast<long long>(V));
  if (!std::isfinite(V))
    return "null"; // JSON has no inf/nan; degrade explicitly
  return format("%.17g", V);
}

void serializeInto(const Value &V, std::string &Out, int Indent,
                   int Depth) {
  auto newline = [&](int D) {
    if (Indent < 0)
      return;
    Out += "\n";
    Out.append(static_cast<size_t>(Indent * D), ' ');
  };
  switch (V.K) {
  case Value::Null:
    Out += "null";
    break;
  case Value::Bool:
    Out += V.B ? "true" : "false";
    break;
  case Value::Number:
    Out += numberToString(V.Num);
    break;
  case Value::String:
    Out += '"';
    Out += escape(V.Str);
    Out += '"';
    break;
  case Value::Array:
    Out += "[";
    for (size_t K = 0; K < V.Arr.size(); ++K) {
      if (K != 0)
        Out += ",";
      newline(Depth + 1);
      serializeInto(V.Arr[K], Out, Indent, Depth + 1);
    }
    if (!V.Arr.empty())
      newline(Depth);
    Out += "]";
    break;
  case Value::Object:
    Out += "{";
    for (size_t K = 0; K < V.Obj.size(); ++K) {
      if (K != 0)
        Out += ",";
      newline(Depth + 1);
      Out += '"';
      Out += escape(V.Obj[K].first);
      Out += "\":";
      if (Indent >= 0)
        Out += " ";
      serializeInto(V.Obj[K].second, Out, Indent, Depth + 1);
    }
    if (!V.Obj.empty())
      newline(Depth);
    Out += "}";
    break;
  }
}

class Parser {
public:
  explicit Parser(const std::string &Text) : S(Text) {}

  std::optional<Value> parse() {
    auto V = value();
    skipWs();
    if (!V || Pos != S.size())
      return std::nullopt;
    return std::move(*V);
  }

private:
  void skipWs() {
    while (Pos < S.size() &&
           std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool eat(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  std::optional<std::string> string() {
    skipWs();
    if (Pos >= S.size() || S[Pos] != '"')
      return std::nullopt;
    ++Pos;
    std::string Out;
    while (Pos < S.size() && S[Pos] != '"') {
      char C = S[Pos++];
      if (C == '\\' && Pos < S.size()) {
        char E = S[Pos++];
        switch (E) {
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'r':
          Out += '\r';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 > S.size())
            return std::nullopt;
          Out += static_cast<char>(
              std::strtol(S.substr(Pos, 4).c_str(), nullptr, 16));
          Pos += 4;
          break;
        }
        default:
          Out += E;
        }
      } else {
        Out += C;
      }
    }
    if (Pos >= S.size())
      return std::nullopt;
    ++Pos; // closing quote
    return Out;
  }

  std::optional<Value> value() {
    skipWs();
    if (Pos >= S.size())
      return std::nullopt;
    char C = S[Pos];
    if (C == '{') {
      ++Pos;
      Value V = Value::object();
      skipWs();
      if (eat('}'))
        return V;
      do {
        auto Key = string();
        if (!Key || !eat(':'))
          return std::nullopt;
        auto Member = value();
        if (!Member)
          return std::nullopt;
        V.Obj.emplace_back(std::move(*Key), std::move(*Member));
      } while (eat(','));
      if (!eat('}'))
        return std::nullopt;
      return V;
    }
    if (C == '[') {
      ++Pos;
      Value V = Value::array();
      skipWs();
      if (eat(']'))
        return V;
      do {
        auto Elem = value();
        if (!Elem)
          return std::nullopt;
        V.Arr.push_back(std::move(*Elem));
      } while (eat(','));
      if (!eat(']'))
        return std::nullopt;
      return V;
    }
    if (C == '"') {
      auto Str = string();
      if (!Str)
        return std::nullopt;
      return Value::string(std::move(*Str));
    }
    if (S.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      return Value::boolean(true);
    }
    if (S.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      return Value::boolean(false);
    }
    if (S.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      return Value::null();
    }
    char *End = nullptr;
    double Num = std::strtod(S.c_str() + Pos, &End);
    if (End == S.c_str() + Pos)
      return std::nullopt;
    Pos = static_cast<size_t>(End - S.c_str());
    return Value::number(Num);
  }

  const std::string &S;
  size_t Pos = 0;
};

} // namespace

std::string Value::serialize(int Indent) const {
  std::string Out;
  serializeInto(*this, Out, Indent, 0);
  return Out;
}

std::optional<Value> json::parse(const std::string &Text) {
  return Parser(Text).parse();
}
