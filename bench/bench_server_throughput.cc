// Network server throughput: queries/second through the full stack
// (client -> wire protocol -> admission -> worker -> Session -> result
// streaming) as the number of concurrent client connections grows.
//
// Three workloads over a NUC-generated table with a NUC PatchIndex:
//   - point:  indexed point SELECTs (`WHERE key = ?`-shaped, literal)
//   - mixed:  90% point SELECTs, 10% single-row UPDATEs (exclusive-lock
//             commits interleaving with shared-lock reads)
//   - range:  2-column SELECTs of a key range of min(rows, 100000) rows,
//             which measures result streaming (encode, send, decode)
// point and mixed are swept over 1 / 4 / 16 / 64 concurrent connections,
// range over 1 / 4. Each sweep runs a fixed total query count split
// across the clients (range runs 1/20 of it), so qps across sweeps is
// comparable. SERVER_BUSY rejections are retried and counted. Per
// sweep, p50/p95/p99 server-side query latency is read off the
// pidx_server_query_latency_us histogram (snapshot delta around the
// sweep; log-bucketed, so percentiles resolve to a power-of-two upper
// bound), and rows/s and MB/s count the result rows the clients
// received and their cell bytes. Results go to BENCH_server.json.
//
// Usage: bench_server_throughput [rows] [queries_per_sweep]
//                                (default 100000 rows, 2000 queries)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/client.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "workload/generator.h"

using namespace patchindex;
using namespace patchindex::bench;

namespace {

enum class Workload { kPoint, kMixed, kRange };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPoint:
      return "point";
    case Workload::kMixed:
      return "mixed";
    case Workload::kRange:
      return "range";
  }
  return "?";
}

/// Rows a range query returns.
constexpr std::uint64_t kRangeRows = 100'000;

struct SweepResult {
  std::size_t clients = 0;
  std::uint64_t queries = 0;
  std::uint64_t busy_retries = 0;
  std::uint64_t result_rows = 0;
  std::uint64_t result_bytes = 0;
  double seconds = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double qps() const { return seconds > 0 ? queries / seconds : 0; }
  double rows_per_s() const { return seconds > 0 ? result_rows / seconds : 0; }
  double mb_per_s() const {
    return seconds > 0 ? result_bytes / seconds / 1e6 : 0;
  }
};

/// Cell bytes of a result: 8 per INT64/DOUBLE cell, length + 4 per
/// string — what its kRowBatch frames carry, less the row counts.
std::uint64_t CellBytes(const Batch& rows) {
  std::uint64_t bytes = 0;
  for (const ColumnVector& col : rows.columns) {
    if (col.type != ColumnType::kString) {
      bytes += 8 * col.size();
      continue;
    }
    for (const std::string& s : col.str) bytes += 4 + s.size();
  }
  return bytes;
}

SweepResult RunSweep(net::PiServer& server, Engine& engine,
                     std::size_t clients, std::uint64_t total_queries,
                     std::uint64_t rows, Workload workload,
                     std::uint64_t salt) {
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> result_rows{0};
  std::atomic<std::uint64_t> result_bytes{0};
  const std::uint64_t span = std::min(rows, kRangeRows);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const std::uint64_t per_client = total_queries / clients;

  obs::HistogramSnapshot before =
      engine.metrics().HistogramSnapshotOf("pidx_server_query_latency_us");
  WallTimer timer;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      net::PiClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        errors.fetch_add(per_client);
        return;
      }
      Rng rng(kBenchSeed + salt * 1000 + t);
      for (std::uint64_t q = 0; q < per_client; ++q) {
        const std::uint64_t key = rng.Uniform(0, rows - 1);
        std::string sql;
        if (workload == Workload::kMixed && q % 10 == 9) {
          sql = "UPDATE t SET val = " + std::to_string(q) +
                " WHERE key = " + std::to_string(key);
        } else if (workload == Workload::kRange) {
          const std::uint64_t lo = rng.Uniform(0, rows - span);
          sql = "SELECT key, val FROM t WHERE key >= " + std::to_string(lo) +
                " AND key < " + std::to_string(lo + span);
        } else {
          sql = "SELECT key, val FROM t WHERE key = " + std::to_string(key);
        }
        for (;;) {
          Result<QueryResult> r = client.Sql(sql);
          if (r.ok()) {
            result_rows.fetch_add(r.value().rows.num_rows());
            result_bytes.fetch_add(CellBytes(r.value().rows));
            break;
          }
          if (r.status().code() == StatusCode::kUnavailable &&
              client.connected()) {
            busy.fetch_add(1);
            std::this_thread::yield();
            continue;
          }
          std::fprintf(stderr, "query failed: %s\n",
                       r.status().ToString().c_str());
          errors.fetch_add(1);
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SweepResult result;
  result.clients = clients;
  result.queries = per_client * clients;
  result.busy_retries = busy.load();
  result.result_rows = result_rows.load();
  result.result_bytes = result_bytes.load();
  result.seconds = timer.ElapsedSeconds();
  obs::HistogramSnapshot delta =
      engine.metrics().HistogramSnapshotOf("pidx_server_query_latency_us");
  delta.Subtract(before);
  result.p50_us = delta.Percentile(0.50);
  result.p95_us = delta.Percentile(0.95);
  result.p99_us = delta.Percentile(0.99);
  if (errors.load() > 0) {
    std::fprintf(stderr, "%llu queries failed; aborting\n",
                 static_cast<unsigned long long>(errors.load()));
    std::exit(1);
  }
  return result;
}

/// A fresh engine holding the NUC table `t` (with its NUC index).
std::unique_ptr<Engine> MakeEngine(std::uint64_t rows) {
  auto engine = std::make_unique<Engine>();
  Session session = engine->CreateSession();
  GeneratorConfig cfg;
  cfg.num_rows = rows;
  cfg.exception_rate = 0.05;
  cfg.seed = kBenchSeed;
  engine->catalog().AddTable("t",
                             std::make_unique<Table>(GenerateNucTable(cfg)));
  if (!session.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique).ok()) {
    std::fprintf(stderr, "index creation failed\n");
    std::exit(1);
  }
  return engine;
}

net::ServerOptions MakeServerOptions() {
  net::ServerOptions options;
  options.port = 0;
  options.max_connections = 128;
  options.max_inflight_queries = 96;
  options.query_workers = std::max<std::size_t>(4, DefaultThreadCount());
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t rows =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000;
  const std::uint64_t queries =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2'000;

  const net::ServerOptions options = MakeServerOptions();
  std::unique_ptr<Engine> engine = MakeEngine(rows);
  net::PiServer server(*engine, options);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", st.ToString().c_str());
    return 1;
  }

  std::FILE* json = std::fopen("BENCH_server.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_server.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  WriteMachineJson(json);
  std::fprintf(json,
               "  \"bench\": \"bench_server_throughput\",\n"
               "  \"rows\": %llu,\n  \"queries_per_sweep\": %llu,\n"
               "  \"query_workers\": %zu,\n"
               "  \"note\": \"full-stack qps over loopback TCP; mixed = "
               "90%% point SELECT + 10%% single-row UPDATE; range = "
               "2-column SELECT of min(rows, 100000) rows, rows_per_s and "
               "mb_per_s count the result rows and cell bytes received; "
               "busy_retries "
               "= SERVER_BUSY rejections retried by clients; p50/p95/p99 "
               "come from the log-bucketed server latency histogram "
               "(bucket upper bounds, so power-of-two resolution)\",\n"
               "  \"results\": [\n",
               static_cast<unsigned long long>(rows),
               static_cast<unsigned long long>(queries),
               options.query_workers);

  struct Sweep {
    Workload workload;
    std::vector<std::size_t> clients;
    std::uint64_t queries;
  };
  const Sweep sweeps[] = {
      {Workload::kPoint, {1, 4, 16, 64}, queries},
      {Workload::kMixed, {1, 4, 16, 64}, queries},
      {Workload::kRange, {1, 4}, std::max<std::uint64_t>(4, queries / 20)},
  };
  bool first = true;
  std::uint64_t salt = 0;
  for (const Sweep& sweep : sweeps) {
    const char* name = WorkloadName(sweep.workload);
    for (const std::size_t clients : sweep.clients) {
      const SweepResult r = RunSweep(server, *engine, clients, sweep.queries,
                                     rows, sweep.workload, ++salt);
      std::printf("%-5s clients=%2zu  queries=%6llu  %8.3f s  %9.0f qps"
                  "  %11.0f rows/s  %8.1f MB/s"
                  "  p50=%.0fus p95=%.0fus p99=%.0fus"
                  "  (busy retries %llu)\n",
                  name, r.clients, static_cast<unsigned long long>(r.queries),
                  r.seconds, r.qps(), r.rows_per_s(), r.mb_per_s(), r.p50_us,
                  r.p95_us, r.p99_us,
                  static_cast<unsigned long long>(r.busy_retries));
      std::fprintf(json,
                   "%s    {\"workload\": \"%s\", \"clients\": %zu, "
                   "\"queries\": %llu, \"seconds\": %.4f, \"qps\": %.1f, "
                   "\"rows_per_s\": %.0f, \"mb_per_s\": %.1f, "
                   "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
                   "\"busy_retries\": %llu}",
                   first ? "" : ",\n", name, r.clients,
                   static_cast<unsigned long long>(r.queries), r.seconds,
                   r.qps(), r.rows_per_s(), r.mb_per_s(), r.p50_us, r.p95_us,
                   r.p99_us, static_cast<unsigned long long>(r.busy_retries));
      first = false;
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_server.json\n");
  server.Stop();
  return 0;
}
