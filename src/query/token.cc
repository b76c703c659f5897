#include "query/token.h"

#include <cctype>

namespace expbsi {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& query) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = query.size();
  while (i < n) {
    const char c = query[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = static_cast<int>(i);
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t end = i;
      while (end < n && (std::isdigit(static_cast<unsigned char>(query[end])) ||
                         query[end] == '.')) {
        ++end;
      }
      token.type = TokenType::kNumber;
      token.text = query.substr(i, end - i);
      i = end;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = i;
      while (end < n && IsIdentChar(query[end])) ++end;
      token.type = TokenType::kIdentifier;
      token.text = query.substr(i, end - i);
      for (char& ch : token.text) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      i = end;
    } else {
      switch (c) {
        case ',':
          token.type = TokenType::kComma;
          ++i;
          break;
        case '(':
          token.type = TokenType::kLParen;
          ++i;
          break;
        case ')':
          token.type = TokenType::kRParen;
          ++i;
          break;
        case '*':
          token.type = TokenType::kStar;
          ++i;
          break;
        case '=':
          token.type = TokenType::kEq;
          ++i;
          break;
        case '!':
          if (i + 1 < n && query[i + 1] == '=') {
            token.type = TokenType::kNe;
            i += 2;
          } else {
            return Status::InvalidArgument("lex error: lone '!' at offset " +
                                           std::to_string(i));
          }
          break;
        case '<':
          if (i + 1 < n && query[i + 1] == '=') {
            token.type = TokenType::kLe;
            i += 2;
          } else if (i + 1 < n && query[i + 1] == '>') {
            token.type = TokenType::kNe;
            i += 2;
          } else {
            token.type = TokenType::kLt;
            ++i;
          }
          break;
        case '>':
          if (i + 1 < n && query[i + 1] == '=') {
            token.type = TokenType::kGe;
            i += 2;
          } else {
            token.type = TokenType::kGt;
            ++i;
          }
          break;
        default:
          return Status::InvalidArgument(
              std::string("lex error: unexpected character '") + c +
              "' at offset " + std::to_string(i));
      }
    }
    tokens.push_back(std::move(token));
  }
  Token end_token;
  end_token.type = TokenType::kEnd;
  end_token.position = static_cast<int>(n);
  tokens.push_back(end_token);
  return tokens;
}

}  // namespace expbsi
