// Commit cost against partition size: single-row INSERT / UPDATE / DELETE
// statements through Session::Sql on a one-partition table with a NUC
// PatchIndex, at 10k, 100k and 1M rows. A commit folds the statement's
// delta into the base columns (copy-on-write per 1024-row block), runs
// the section-5 handlers and publishes a new MVCC version; each of those
// should follow the size of the delta, not of the partition. Reports the
// median, p10 and p90 of the statement profile's commit_ms per kind.
//
// Two layouts of the indexed column: clustered (each block's values stay
// local, so the NUC probe's range propagation keeps a block or two) and
// unclustered (base values scrambled over every block, new values
// random, so the probe scans the whole partition — the §5.1 cost on a
// key not assigned in insert order). Results go to BENCH_commit.json:
// `commit_ms` holds the clustered rows, `commit_ms_unclustered` the
// unclustered ones.
//
// Usage: bench_commit_scaling [statements_per_kind] [out.json]
//                             (default 300 statements, BENCH_commit.json)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"

using namespace patchindex;
using namespace patchindex::bench;

namespace {

struct Spread {
  double p10 = 0;
  double p50 = 0;
  double p90 = 0;
};

Spread SpreadOf(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  auto at = [&ms](double q) {
    return ms[static_cast<std::size_t>(q * static_cast<double>(ms.size() - 1))];
  };
  return {at(0.10), at(0.50), at(0.90)};
}

/// (k, v, w): k = 0..rows-1 and v = 2 p(k), except that every 40th row
/// repeats its predecessor's v (5% patches on the NUC index). Clustered,
/// p(k) = k: each block's v bounds stay local, so the NUC probe's range
/// propagation keeps a block or two and the commit, not the probe, is
/// measured. Unclustered, p is a multiplicative hash permuting [0, rows),
/// so every block spans nearly the whole domain.
std::unique_ptr<PartitionedTable> MakeTable(std::int64_t rows,
                                            bool clustered) {
  auto table = std::make_unique<PartitionedTable>(
      Schema({{"k", ColumnType::kInt64},
              {"v", ColumnType::kInt64},
              {"w", ColumnType::kInt64}}),
      1);
  const auto p = [&](std::int64_t r) {
    if (clustered) return r;
    // The multiplier is coprime to every size (10^n): a permutation.
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(r) * 0x9E3779B1ULL) %
        static_cast<std::uint64_t>(rows));
  };
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t v = r % 40 == 0 && r > 0 ? 2 * p(r - 1) : 2 * p(r);
    table->AppendRow(Row{{Value(r), Value(v), Value(r % 1000)}});
  }
  return table;
}

/// commit_ms of one statement, or a negative value when it failed.
double CommitMs(Session& session, const std::string& sql) {
  const Result<QueryResult> r = session.Sql(sql);
  if (!r.ok() || r.value().profile == nullptr) {
    std::fprintf(stderr, "statement failed: %s\n  %s\n",
                 r.ok() ? "no profile" : r.status().ToString().c_str(),
                 sql.c_str());
    return -1;
  }
  return r.value().profile->commit_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const int statements = argc > 1 ? std::atoi(argv[1]) : 300;
  const char* out_path = argc > 2 ? argv[2] : "BENCH_commit.json";
  if (statements < 1) {
    std::fprintf(stderr, "statements_per_kind must be >= 1\n");
    return 2;
  }
  const std::int64_t sizes[] = {10'000, 100'000, 1'000'000};
  const char* kinds[] = {"insert", "update", "delete"};

  std::string rows_json[2];  // clustered, unclustered
  for (const bool clustered : {true, false}) {
    for (const std::int64_t rows : sizes) {
      EngineOptions options;
      options.num_threads = 2;
      Engine engine(options);
      if (!engine.catalog()
               .AddPartitionedTable("t", MakeTable(rows, clustered))
               .ok()) {
        return 1;
      }
      Session session = engine.CreateSession();
      if (!session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique)
               .ok()) {
        return 1;
      }
      Rng rng = SeededRng(static_cast<std::uint64_t>(rows));
      std::vector<double> ms[3];
      std::int64_t next_key = rows;
      for (int i = 0; i < statements; ++i) {
        // Interleaved, so every kind sees the same table state over time.
        const auto k = static_cast<std::int64_t>(
            rng.Uniform(0, static_cast<std::uint64_t>(rows) / 2));
        // Clustered: a new value past the end, and an odd value inside
        // the updated row's own block bounds. Unclustered: random values
        // over the whole domain.
        const auto random_value = [&] {
          return static_cast<std::int64_t>(
              rng.Uniform(0, 2 * static_cast<std::uint64_t>(rows)));
        };
        const std::int64_t insert_v =
            clustered ? 3 * next_key : random_value();
        const std::int64_t update_v = clustered ? 2 * k + 1 : random_value();
        const std::string sqls[3] = {
            "INSERT INTO t VALUES (" + std::to_string(next_key) + ", " +
                std::to_string(insert_v) + ", 1)",
            "UPDATE t SET v = " + std::to_string(update_v) +
                " WHERE k = " + std::to_string(k),
            "DELETE FROM t WHERE k = " +
                std::to_string(rows / 2 + static_cast<std::int64_t>(i))};
        ++next_key;
        for (int kind = 0; kind < 3; ++kind) {
          const double t = CommitMs(session, sqls[kind]);
          if (t < 0) return 1;
          ms[kind].push_back(t);
        }
      }
      std::printf("%-11s rows=%-8lld",
                  clustered ? "clustered" : "unclustered",
                  static_cast<long long>(rows));
      std::string& json = rows_json[clustered ? 0 : 1];
      json += json.empty() ? "" : ",\n";
      json += "    {\"rows\": " + std::to_string(rows);
      for (int kind = 0; kind < 3; ++kind) {
        const Spread s = SpreadOf(ms[kind]);
        std::printf("  %s p50=%.4f ms (p10 %.4f, p90 %.4f)", kinds[kind],
                    s.p50, s.p10, s.p90);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      ", \"%s\": {\"p10_ms\": %.4f, \"p50_ms\": %.4f, "
                      "\"p90_ms\": %.4f}",
                      kinds[kind], s.p10, s.p50, s.p90);
        json += buf;
      }
      json += "}";
      std::printf("\n");
    }
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror(out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  WriteMachineJson(f);
  std::fprintf(f, "  \"bench\": \"bench_commit_scaling\",\n");
  std::fprintf(f,
               "  \"note\": \"single-row statements through Session::Sql on "
               "a 1-partition (k, v, w) table with a NUC PatchIndex on v; "
               "commit_ms from the statement profile, %d statements per "
               "kind and size, interleaved; commit_ms: v clustered by k, "
               "block-local new values; commit_ms_unclustered: v scrambled "
               "over every block, random new values\",\n",
               statements);
  std::fprintf(f, "  \"commit_ms\": [\n%s\n  ],\n", rows_json[0].c_str());
  std::fprintf(f, "  \"commit_ms_unclustered\": [\n%s\n  ]\n}\n",
               rows_json[1].c_str());
  std::fclose(f);
  return 0;
}
