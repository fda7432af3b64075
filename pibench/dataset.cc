#include "dataset.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>

namespace pibench {

namespace {

std::int64_t UniformInt(std::mt19937_64& rng, std::int64_t lo,
                        std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
}

bool Coin(std::mt19937_64& rng, double p) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
}

}  // namespace

TableData MakeNucTable(const std::string& name, std::uint64_t n, double e,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TableData t;
  t.name = name;
  t.key.resize(n);
  std::iota(t.key.begin(), t.key.end(), 0);
  t.val.resize(n);
  std::iota(t.val.begin(), t.val.end(), kNucExceptionDomain);
  std::shuffle(t.val.begin(), t.val.end(), rng);
  for (std::int64_t& v : t.val) {
    if (Coin(rng, e)) v = UniformInt(rng, 0, kNucExceptionDomain - 1);
  }
  return t;
}

TableData MakeNscTable(const std::string& name, std::uint64_t n, double e,
                       std::int64_t domain, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TableData t;
  t.name = name;
  t.key.resize(n);
  std::iota(t.key.begin(), t.key.end(), 0);
  t.val.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    t.val[i] = Coin(rng, e) ? UniformInt(rng, 0, domain - 1)
                            : static_cast<std::int64_t>(
                                  static_cast<double>(i) *
                                  static_cast<double>(domain) /
                                  static_cast<double>(n));
  }
  return t;
}

TableData MakeDimTable(const std::string& name, std::uint64_t n) {
  TableData t;
  t.name = name;
  t.key.resize(n);
  std::iota(t.key.begin(), t.key.end(), 0);
  t.val.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    t.val[i] = static_cast<std::int64_t>((i * 7919) % 1000);
  }
  return t;
}

std::string CreateTableSql(const std::string& name) {
  return "CREATE TABLE " + name + " (key INT64, val INT64)";
}

std::string InsertSql(
    const std::string& table,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& rows) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  sql.reserve(sql.size() + rows.size() * 20);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(rows[i].first) + ", " +
           std::to_string(rows[i].second) + ")";
  }
  return sql;
}

std::vector<std::string> LoadStatements(const TableData& table,
                                        std::size_t batch) {
  std::vector<std::string> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> rows;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    rows.emplace_back(table.key[i], table.val[i]);
    if (rows.size() == batch || i + 1 == table.num_rows()) {
      out.push_back(InsertSql(table.name, rows));
      rows.clear();
    }
  }
  return out;
}

std::string DistinctSql(std::int64_t lo, std::int64_t hi) {
  return "SELECT DISTINCT val FROM u WHERE key >= " + std::to_string(lo) +
         " AND key < " + std::to_string(hi);
}

std::string SortSql(std::int64_t lo, std::int64_t hi) {
  return "SELECT key, val FROM s WHERE key >= " + std::to_string(lo) +
         " AND key < " + std::to_string(hi) + " ORDER BY val";
}

std::string JoinSql(std::int64_t lo, std::int64_t hi) {
  return "SELECT d.key, COUNT(*) FROM d JOIN s ON d.key = s.val "
         "WHERE s.key >= " +
         std::to_string(lo) + " AND s.key < " + std::to_string(hi) +
         " GROUP BY d.key";
}

std::string PointSql(const std::string& table, std::int64_t key) {
  return "SELECT key, val FROM " + table + " WHERE key = " +
         std::to_string(key);
}

std::vector<std::int64_t> RefDistinct(const TableData& t, std::int64_t lo,
                                      std::int64_t hi) {
  std::set<std::int64_t> values;
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    if (t.key[i] >= lo && t.key[i] < hi) values.insert(t.val[i]);
  }
  return {values.begin(), values.end()};
}

std::vector<std::pair<std::int64_t, std::int64_t>> RefSort(
    const TableData& t, std::int64_t lo, std::int64_t hi) {
  std::vector<std::pair<std::int64_t, std::int64_t>> rows;
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    if (t.key[i] >= lo && t.key[i] < hi) rows.emplace_back(t.val[i], t.key[i]);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::pair<std::int64_t, std::int64_t>> RefJoin(
    const TableData& d, const TableData& s, std::int64_t lo,
    std::int64_t hi) {
  const std::set<std::int64_t> dim_keys(d.key.begin(), d.key.end());
  std::map<std::int64_t, std::int64_t> counts;
  for (std::size_t i = 0; i < s.num_rows(); ++i) {
    if (s.key[i] >= lo && s.key[i] < hi && dim_keys.count(s.val[i]) > 0) {
      ++counts[s.val[i]];
    }
  }
  return {counts.begin(), counts.end()};
}

}  // namespace pibench
