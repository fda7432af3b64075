// Network server throughput: queries/second through the full stack
// (client -> wire protocol -> admission -> worker -> Session -> result
// streaming) as the number of concurrent client connections grows.
//
// Two workloads over a NUC-generated table with a NUC PatchIndex:
//   - point:  indexed point SELECTs (`WHERE key = ?`-shaped, literal)
//   - mixed:  90% point SELECTs, 10% single-row UPDATEs (exclusive-lock
//             commits interleaving with shared-lock reads)
// swept over 1 / 4 / 16 / 64 concurrent connections. Each sweep runs a
// fixed total query count split across the clients, so qps across
// sweeps is comparable. SERVER_BUSY rejections are retried and counted.
// Per sweep, p50/p95/p99 server-side query latency is read off the
// pidx_server_query_latency_us histogram (snapshot delta around the
// sweep; log-bucketed, so percentiles resolve to a power-of-two upper
// bound). Results go to BENCH_server.json.
//
// Usage: bench_server_throughput [rows] [queries_per_sweep]
//                                (default 100000 rows, 2000 queries)

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

struct SweepResult {
  std::size_t clients = 0;
  std::uint64_t queries = 0;
  std::uint64_t busy_retries = 0;
  double seconds = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double qps() const { return seconds > 0 ? queries / seconds : 0; }
};

SweepResult RunSweep(net::PiServer& server, Engine& engine,
                     std::size_t clients, std::uint64_t total_queries,
                     std::uint64_t rows, bool mixed, std::uint64_t salt) {
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> errors{0};
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
        if (mixed && q % 10 == 9) {
          sql = "UPDATE t SET val = " + std::to_string(q) +
                " WHERE key = " + std::to_string(key);
        } else {
          sql = "SELECT key, val FROM t WHERE key = " + std::to_string(key);
        }
        for (;;) {
          Result<QueryResult> r = client.Sql(sql);
          if (r.ok()) break;
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
               "90%% point SELECT + 10%% single-row UPDATE; busy_retries "
               "= SERVER_BUSY rejections retried by clients; p50/p95/p99 "
               "come from the log-bucketed server latency histogram "
               "(bucket upper bounds, so power-of-two resolution)\",\n"
               "  \"results\": [\n",
               static_cast<unsigned long long>(rows),
               static_cast<unsigned long long>(queries),
               options.query_workers);

  const std::size_t sweeps[] = {1, 4, 16, 64};
  bool first = true;
  std::uint64_t salt = 0;
  for (const bool mixed : {false, true}) {
    for (const std::size_t clients : sweeps) {
      const SweepResult r =
          RunSweep(server, *engine, clients, queries, rows, mixed, ++salt);
      std::printf("%-5s clients=%2zu  queries=%6llu  %8.3f s  %9.0f qps"
                  "  p50=%.0fus p95=%.0fus p99=%.0fus"
                  "  (busy retries %llu)\n",
                  mixed ? "mixed" : "point", r.clients,
                  static_cast<unsigned long long>(r.queries), r.seconds,
                  r.qps(), r.p50_us, r.p95_us, r.p99_us,
                  static_cast<unsigned long long>(r.busy_retries));
      std::fprintf(json,
                   "%s    {\"workload\": \"%s\", \"clients\": %zu, "
                   "\"queries\": %llu, \"seconds\": %.4f, \"qps\": %.1f, "
                   "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
                   "\"busy_retries\": %llu}",
                   first ? "" : ",\n", mixed ? "mixed" : "point", r.clients,
                   static_cast<unsigned long long>(r.queries), r.seconds,
                   r.qps(), r.p50_us, r.p95_us, r.p99_us,
                   static_cast<unsigned long long>(r.busy_retries));
      first = false;
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_server.json\n");
  server.Stop();
  return 0;
}
