#include "query/parser.h"

#include <charconv>
#include <limits>
#include <system_error>
#include <type_traits>

#include "query/token.h"

namespace expbsi {
namespace {

// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query query;
    RETURN_IF_ERROR(ExpectKeyword("select"));
    RETURN_IF_ERROR(ParseAggregates(&query));
    RETURN_IF_ERROR(ExpectKeyword("from"));
    RETURN_IF_ERROR(ParseSource(&query));
    if (AcceptKeyword("where")) {
      RETURN_IF_ERROR(ParsePredicate(&query));
      while (AcceptKeyword("and")) {
        RETURN_IF_ERROR(ParsePredicate(&query));
      }
    }
    if (AcceptKeyword("group")) {
      RETURN_IF_ERROR(ExpectKeyword("by"));
      RETURN_IF_ERROR(ExpectKeyword("bucket"));
      query.group_by_bucket = true;
    }
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(Peek().position));
  }

  bool AcceptKeyword(const std::string& keyword) {
    if (Peek().type == TokenType::kIdentifier && Peek().text == keyword) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& keyword) {
    if (!AcceptKeyword(keyword)) {
      return Error("expected '" + keyword + "'");
    }
    return Status::OK();
  }

  Status Expect(TokenType type, const char* what) {
    if (Peek().type != type) return Error(std::string("expected ") + what);
    Advance();
    return Status::OK();
  }

  // Converts the number literal at the cursor with std::from_chars, which
  // is exact for integers and never throws; errors point at the literal.
  template <typename T>
  Status ParseNumber(T* out) {
    if (Peek().type != TokenType::kNumber) return Error("expected number");
    const std::string& text = Peek().text;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    if (ec == std::errc::result_out_of_range) {
      if constexpr (std::is_integral_v<T>) {
        return Error("integer out of range (max " +
                     std::to_string(std::numeric_limits<T>::max()) + ")");
      }
      return Error("number out of range");
    }
    if (ec != std::errc() || ptr != end) {
      return Error(std::is_integral_v<T> ? "expected non-negative integer"
                                         : "malformed number");
    }
    Advance();
    return Status::OK();
  }

  // date = <number>
  Status ParseDateArg(Date* out) {
    RETURN_IF_ERROR(ExpectKeyword("date"));
    RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    return ParseNumber(out);
  }

  Status ParseAggregates(Query* query) {
    do {
      RETURN_IF_ERROR(ParseAggregate(query));
    } while (Peek().type == TokenType::kComma && (Advance(), true));
    return Status::OK();
  }

  Status ParseAggregate(Query* query) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected aggregate function");
    }
    const std::string func_name = Advance().text;
    QueryAggregate agg;
    if (func_name == "sum") {
      agg.func = QueryAggregate::Func::kSum;
    } else if (func_name == "count") {
      agg.func = QueryAggregate::Func::kCount;
    } else if (func_name == "avg") {
      agg.func = QueryAggregate::Func::kAvg;
    } else if (func_name == "min") {
      agg.func = QueryAggregate::Func::kMin;
    } else if (func_name == "max") {
      agg.func = QueryAggregate::Func::kMax;
    } else if (func_name == "median") {
      agg.func = QueryAggregate::Func::kMedian;
    } else if (func_name == "quantile") {
      agg.func = QueryAggregate::Func::kQuantile;
    } else if (func_name == "uv") {
      agg.func = QueryAggregate::Func::kUv;
    } else {
      return Error("unknown aggregate '" + func_name + "'");
    }
    RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (Peek().type == TokenType::kStar) {
      if (agg.func != QueryAggregate::Func::kCount) {
        return Error("'*' is only valid in count(*)");
      }
      Advance();
      agg.label = "count(*)";
    } else {
      RETURN_IF_ERROR(ExpectKeyword("value"));
      agg.label = func_name + "(value)";
    }
    if (agg.func == QueryAggregate::Func::kQuantile) {
      RETURN_IF_ERROR(Expect(TokenType::kComma, "','"));
      RETURN_IF_ERROR(ParseNumber(&agg.quantile_q));
      if (agg.quantile_q < 0.0 || agg.quantile_q > 1.0) {
        return Error("quantile must be in [0, 1]");
      }
      agg.label = "quantile(value, " + std::to_string(agg.quantile_q) + ")";
    }
    RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    query->aggregates.push_back(std::move(agg));
    return Status::OK();
  }

  // Shared tail of dated sources: '(' id ',' date = n [, to = n] ')'.
  Status ParseDatedSourceArgs(Query* query) {
    RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (query->source == Query::Source::kDimension) {
      uint32_t dimension_id = 0;  // dimension ids are 32-bit
      RETURN_IF_ERROR(ParseNumber(&dimension_id));
      query->source_id = dimension_id;
    } else {
      RETURN_IF_ERROR(ParseNumber(&query->source_id));
    }
    RETURN_IF_ERROR(Expect(TokenType::kComma, "','"));
    RETURN_IF_ERROR(ParseDateArg(&query->date));
    query->date_to = query->date;
    if (Peek().type == TokenType::kComma) {
      Advance();
      RETURN_IF_ERROR(ExpectKeyword("to"));
      RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
      RETURN_IF_ERROR(ParseNumber(&query->date_to));
      if (query->date_to < query->date) {
        return Error("date range end precedes start");
      }
    }
    return Expect(TokenType::kRParen, "')'");
  }

  Status ParseSource(Query* query) {
    if (AcceptKeyword("dim")) {
      query->source = Query::Source::kDimension;
      return ParseDatedSourceArgs(query);
    }
    if (AcceptKeyword("metric")) {
      query->source = Query::Source::kMetric;
      return ParseDatedSourceArgs(query);
    }
    if (AcceptKeyword("expose")) {
      query->source = Query::Source::kExpose;
      RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      RETURN_IF_ERROR(ParseNumber(&query->source_id));
      RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return Status::OK();
    }
    return Error("expected source: metric(...), dim(...) or expose(...)");
  }

  Status ParseCompareOp(RangeOp* out) {
    switch (Peek().type) {
      case TokenType::kEq:
        *out = RangeOp::kEq;
        break;
      case TokenType::kNe:
        *out = RangeOp::kNe;
        break;
      case TokenType::kLt:
        *out = RangeOp::kLt;
        break;
      case TokenType::kLe:
        *out = RangeOp::kLe;
        break;
      case TokenType::kGt:
        *out = RangeOp::kGt;
        break;
      case TokenType::kGe:
        *out = RangeOp::kGe;
        break;
      default:
        return Error("expected comparison operator");
    }
    Advance();
    return Status::OK();
  }

  Status ParsePredicate(Query* query) {
    QueryPredicate pred;
    if (AcceptKeyword("exposed")) {
      pred.kind = QueryPredicate::Kind::kExposed;
      RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      RETURN_IF_ERROR(ParseNumber(&pred.strategy_id));
      if (Peek().type == TokenType::kComma) {
        Advance();
        RETURN_IF_ERROR(ExpectKeyword("on_or_before"));
        RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
        RETURN_IF_ERROR(ParseNumber(&pred.on_or_before));
      } else {
        pred.per_scan_day = true;  // the scorecard's per-day expose filter
      }
      RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    } else if (AcceptKeyword("value")) {
      pred.kind = QueryPredicate::Kind::kValue;
      RETURN_IF_ERROR(ParseCompareOp(&pred.op));
      RETURN_IF_ERROR(ParseNumber(&pred.constant));
    } else if (AcceptKeyword("offset")) {
      pred.kind = QueryPredicate::Kind::kOffset;
      RETURN_IF_ERROR(ParseCompareOp(&pred.op));
      RETURN_IF_ERROR(ParseNumber(&pred.constant));
    } else if (AcceptKeyword("dim")) {
      pred.kind = QueryPredicate::Kind::kDimension;
      RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      RETURN_IF_ERROR(ParseNumber(&pred.dimension_id));
      RETURN_IF_ERROR(Expect(TokenType::kComma, "','"));
      RETURN_IF_ERROR(ParseDateArg(&pred.dim_date));
      RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      RETURN_IF_ERROR(ParseCompareOp(&pred.op));
      RETURN_IF_ERROR(ParseNumber(&pred.constant));
    } else {
      return Error("expected predicate: exposed/value/offset/dim");
    }
    query->predicates.push_back(pred);
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Parse();
}

}  // namespace expbsi
