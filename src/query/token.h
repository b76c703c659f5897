#ifndef EXPBSI_QUERY_TOKEN_H_
#define EXPBSI_QUERY_TOKEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace expbsi {

// Lexer for the experiment query language (EQL), the small SQL-shaped
// language covering the paper's fixed query paradigms (§4.1: "most of the
// queries on the experiment data follow some fixed paradigms").

enum class TokenType {
  kIdentifier,  // select, sum, value, metric, ... (case-insensitive keywords)
  kNumber,      // 8371, 0.9 (also malformed runs like 1.2.3)
  kComma,
  kLParen,
  kRParen,
  kStar,        // '*' (count(*))
  kEq,          // =
  kNe,          // != or <>
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  // Identifier text, lower-cased; a number's literal as written (digits and
  // dots), which the parser converts exactly.
  std::string text;
  int position = 0;  // byte offset in the query (for error messages)
};

// Splits `query` into tokens. Identifiers may contain '-' and '_'
// (the paper writes metric-id, expose-log, ...).
Result<std::vector<Token>> Tokenize(const std::string& query);

}  // namespace expbsi

#endif  // EXPBSI_QUERY_TOKEN_H_
