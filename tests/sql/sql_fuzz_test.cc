// Fuzz sweeps over the SQL lexer and parser, in the style of the wire
// decoder sweeps: every SQL statement of the pisql smoke script is
// truncated at every byte and has every bit flipped once, and a
// fixed-seed batch of random byte strings is parsed too. Tokenize and
// ParseStatement must either succeed or fail with a kInvalidArgument that
// names a source position; they must never crash or read past the text.
// Each input is parsed from a heap buffer of exactly its size, so an
// over-read is visible to AddressSanitizer.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "server/meta_commands.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace patchindex::sql {
namespace {

/// The SQL statements of tools/pisql_smoke.sql (meta commands skipped),
/// split the way pisql splits them.
std::vector<std::string> SmokeStatements() {
  std::ifstream in(std::string(PATCHINDEX_SOURCE_DIR) +
                   "/tools/pisql_smoke.sql");
  EXPECT_TRUE(in.good()) << "cannot open tools/pisql_smoke.sql";
  StatementSplitter splitter;
  std::vector<std::string> statements;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '.') continue;
    for (std::string& stmt : splitter.Feed(line)) {
      statements.push_back(std::move(stmt));
    }
  }
  return statements;
}

void ExpectPositionedError(const Status& st, const std::string& input) {
  if (st.ok()) return;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << input;
  EXPECT_NE(st.message().find("line "), std::string::npos)
      << st.ToString() << " for: " << input;
}

/// Lexes and parses a copy of `sql` in an allocation of exactly its size.
/// Returns whether the statement parsed.
bool ParseExact(const std::string& sql) {
  std::unique_ptr<char[]> exact(new char[sql.size()]);
  if (!sql.empty()) std::memcpy(exact.get(), sql.data(), sql.size());
  const std::string_view text(exact.get(), sql.size());
  ExpectPositionedError(Tokenize(text).status(), sql);
  Result<Statement> stmt = ParseStatement(text);
  ExpectPositionedError(stmt.status(), sql);
  return stmt.ok();
}

TEST(SqlFuzzTest, SmokeStatementsParse) {
  const std::vector<std::string> statements = SmokeStatements();
  EXPECT_GE(statements.size(), 20u);
  for (const std::string& sql : statements) {
    EXPECT_TRUE(ParseExact(sql)) << sql;
  }
}

TEST(SqlFuzzTest, TruncationAtEveryByte) {
  for (const std::string& sql : SmokeStatements()) {
    for (std::size_t cut = 0; cut < sql.size(); ++cut) {
      ParseExact(sql.substr(0, cut));
    }
  }
}

TEST(SqlFuzzTest, SingleBitFlips) {
  for (const std::string& sql : SmokeStatements()) {
    for (std::size_t byte = 0; byte < sql.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = sql;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        ParseExact(flipped);
      }
    }
  }
}

TEST(SqlFuzzTest, RandomByteStrings) {
  Rng rng(1717);
  for (int iter = 0; iter < 20000; ++iter) {
    std::string sql(rng.Uniform(0, 96), '\0');
    for (char& c : sql) c = static_cast<char>(rng.Uniform(0, 255));
    ParseExact(sql);
  }
}

}  // namespace
}  // namespace patchindex::sql
