// Seeded table contents and statement text for pibench, plus the
// reference answers the quiescent checks compare query results against.
// Everything here is a pure function of its arguments: the same seed
// gives the same tables and the same statements.

#ifndef PIBENCH_DATASET_H_
#define PIBENCH_DATASET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pibench {

/// A two-column table (key INT64, val INT64), column-major, in row order.
struct TableData {
  std::string name;
  std::vector<std::int64_t> key;
  std::vector<std::int64_t> val;
  std::size_t num_rows() const { return key.size(); }
};

/// Values below this bound are the NUC exception domain: every
/// exception draws one of them, so each is duplicated many times.
inline constexpr std::int64_t kNucExceptionDomain = 100;

/// Nearly-unique: key = 0..n-1; a fraction `e` of rows draws its value
/// from the small exception domain, the rest hold distinct values above
/// it in random order.
TableData MakeNucTable(const std::string& name, std::uint64_t n, double e,
                       std::uint64_t seed);

/// Nearly-sorted: key = 0..n-1; non-exception values ascend (with
/// repeats) through [0, domain); a fraction `e` of rows holds a random
/// value in the same domain.
TableData MakeNscTable(const std::string& name, std::uint64_t n, double e,
                       std::int64_t domain, std::uint64_t seed);

/// Dimension: key = 0..n-1 (exactly sorted), val = a key-derived label.
TableData MakeDimTable(const std::string& name, std::uint64_t n);

/// `CREATE TABLE <name> (key INT64, val INT64)`.
std::string CreateTableSql(const std::string& name);

/// Multi-row INSERTs loading `table`, `batch` rows per statement.
std::vector<std::string> LoadStatements(const TableData& table,
                                        std::size_t batch);

/// `INSERT INTO <table> VALUES (k, v), ...`.
std::string InsertSql(const std::string& table,
                      const std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>& rows);

// --- statement templates of the read mixes ------------------------------

/// Half-open key ranges [lo, hi).
std::string DistinctSql(std::int64_t lo, std::int64_t hi);  // over u
std::string SortSql(std::int64_t lo, std::int64_t hi);      // over s
std::string JoinSql(std::int64_t lo, std::int64_t hi);      // d JOIN s
std::string PointSql(const std::string& table, std::int64_t key);

// --- reference answers from a plain scan --------------------------------

/// Distinct `val`s of rows with key in [lo, hi), ascending (std::set).
std::vector<std::int64_t> RefDistinct(const TableData& t, std::int64_t lo,
                                      std::int64_t hi);
/// (val, key) of rows with key in [lo, hi), sorted (std::sort).
std::vector<std::pair<std::int64_t, std::int64_t>> RefSort(
    const TableData& t, std::int64_t lo, std::int64_t hi);
/// (d.key, COUNT(*)) of d JOIN s ON d.key = s.val for s.key in [lo, hi),
/// ascending by d.key.
std::vector<std::pair<std::int64_t, std::int64_t>> RefJoin(
    const TableData& d, const TableData& s, std::int64_t lo,
    std::int64_t hi);

}  // namespace pibench

#endif  // PIBENCH_DATASET_H_
