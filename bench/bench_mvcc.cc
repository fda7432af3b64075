// MVCC snapshot reads under write pressure: a continuous full-table
// analytic scan stream concurrent with a high-rate two-row UPDATE
// stream. Readers pin the published TableVersion through an epoch guard
// and never touch the table lock, so commits proceed at full speed
// underneath the scans.
//
// Consistency is asserted, not assumed: the table carries two marker
// rows routed to *different partitions*, always updated together in one
// statement (one commit). Every scan computes MIN(marker)/MAX(marker)
// over the full table; a scan that observed a commit's partitions torn
// (one partition's new marker, the other's old) reports MIN != MAX. A
// pinned version is one committed cross-partition snapshot, so the run
// fails (exit 1) on any violation.
//
// Results go to BENCH_mvcc.json.
//
// Usage: bench_mvcc [rows] [seconds] [json_path]
//        (default 400000 rows, 2.5 s, BENCH_mvcc.json)

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"

using namespace patchindex;
using namespace patchindex::bench;

namespace {

constexpr std::size_t kPartitions = 4;
constexpr std::size_t kScanThreads = 2;

/// (id unique, val uniform, marker 0) over kPartitions partitions.
/// The marker rows id=0 and id=1 land in partitions 0 and 3 — a
/// cross-partition pair one UPDATE statement commits atomically.
std::unique_ptr<PartitionedTable> MakeTable(std::uint64_t rows) {
  Schema schema({{"id", ColumnType::kInt64},
                 {"val", ColumnType::kInt64},
                 {"marker", ColumnType::kInt64}});
  std::vector<std::unique_ptr<Table>> parts;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    parts.push_back(std::make_unique<Table>(schema));
  }
  Rng rng = SeededRng(/*salt=*/9);
  auto append = [](Table& t, std::int64_t id, std::int64_t val) {
    t.column(0).AppendInt64(id);
    t.column(1).AppendInt64(val);
    t.column(2).AppendInt64(0);
  };
  append(*parts[0], 0, 0);                  // marker row A
  append(*parts[kPartitions - 1], 1, 0);    // marker row B
  for (std::uint64_t i = 2; i < rows; ++i) {
    append(*parts[i % kPartitions], static_cast<std::int64_t>(i),
           static_cast<std::int64_t>(rng.Uniform(0, 1'000'000)));
  }
  return std::make_unique<PartitionedTable>(schema, std::move(parts));
}

struct RunResult {
  double seconds = 0;
  std::uint64_t updates = 0;
  std::uint64_t scans = 0;
  std::uint64_t violations = 0;
  double updates_per_s() const { return seconds > 0 ? updates / seconds : 0; }
  double scans_per_s() const { return seconds > 0 ? scans / seconds : 0; }
};

RunResult Run(std::uint64_t rows, double seconds) {
  Engine engine;
  Result<PartitionedTable*> added =
      engine.catalog().AddPartitionedTable("t", MakeTable(rows));
  if (!added.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 added.status().ToString().c_str());
    std::exit(1);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kScanThreads; ++s) {
    threads.emplace_back([&] {
      Session session = engine.CreateSession();
      while (!stop.load(std::memory_order_relaxed)) {
        // Full-table scan (id is unindexed, so the filter runs over
        // every row of every partition); the aggregate pair reduces to
        // the two marker rows, whose values must match within one scan.
        Result<QueryResult> r = session.Sql(
            "SELECT MIN(marker), MAX(marker) FROM t WHERE id <= 1");
        if (!r.ok()) {
          std::fprintf(stderr, "scan failed: %s\n",
                       r.status().ToString().c_str());
          failed.store(true);
          return;
        }
        const Batch& rows_out = r.value().rows;
        if (rows_out.num_rows() == 1 &&
            rows_out.columns[0].i64[0] != rows_out.columns[1].i64[0]) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    Session session = engine.CreateSession();
    std::int64_t k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++k;
      Result<QueryResult> r = session.Sql(
          "UPDATE t SET marker = " + std::to_string(k) + " WHERE id <= 1");
      if (!r.ok()) {
        std::fprintf(stderr, "update failed: %s\n",
                     r.status().ToString().c_str());
        failed.store(true);
        return;
      }
      updates.fetch_add(1, std::memory_order_relaxed);
    }
  });

  WallTimer timer;
  while (timer.ElapsedSeconds() < seconds && !failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  if (failed.load()) std::exit(1);

  RunResult result;
  result.seconds = timer.ElapsedSeconds();
  result.updates = updates.load();
  result.scans = scans.load();
  result.violations = violations.load();
  return result;
}

void WriteJson(const char* path, std::uint64_t rows, const RunResult& r) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  WriteMachineJson(f);
  std::fprintf(f, "  \"bench\": \"bench_mvcc scan-vs-update\",\n");
  std::fprintf(f, "  \"rows\": %llu,\n",
               static_cast<unsigned long long>(rows));
  std::fprintf(f, "  \"partitions\": %zu,\n", kPartitions);
  std::fprintf(f, "  \"scan_threads\": %zu,\n", kScanThreads);
  std::fprintf(f, "  \"update_threads\": 1,\n");
  std::fprintf(f,
               "  \"note\": \"consistency_violations counts scans whose "
               "cross-partition marker pair was torn — must be 0\",\n");
  std::fprintf(f,
               "  \"results\": [\n"
               "    {\"mode\": \"mvcc\", \"seconds\": %.3f, "
               "\"updates\": %llu, \"updates_per_s\": %.1f, "
               "\"scans\": %llu, \"scans_per_s\": %.1f, "
               "\"consistency_violations\": %llu}\n"
               "  ]\n",
               r.seconds, static_cast<unsigned long long>(r.updates),
               r.updates_per_s(), static_cast<unsigned long long>(r.scans),
               r.scans_per_s(),
               static_cast<unsigned long long>(r.violations));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t rows =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400'000;
  const double seconds = argc > 2 ? std::strtod(argv[2], nullptr) : 2.5;
  const char* path = argc > 3 ? argv[3] : "BENCH_mvcc.json";

  std::printf("bench_mvcc: %llu rows, %zu partitions, %zu scan threads, "
              "%.1f s\n",
              static_cast<unsigned long long>(rows), kPartitions,
              kScanThreads, seconds);
  const RunResult r = Run(rows, seconds);
  std::printf("  mvcc: %.1f updates/s, %.1f scans/s, %llu violations\n",
              r.updates_per_s(), r.scans_per_s(),
              static_cast<unsigned long long>(r.violations));
  WriteJson(path, rows, r);
  if (r.violations != 0) {
    std::fprintf(stderr, "torn cross-partition reads: %llu\n",
                 static_cast<unsigned long long>(r.violations));
    return 1;
  }
  return 0;
}
