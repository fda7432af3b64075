// pibench — the repository benchmark.
//
// One run starts an in-process PiServer on loopback, loads the workload's
// tables through it with CREATE TABLE + batched INSERT and builds their
// PatchIndexes (the set-up, repeated several times; its median is
// setup_s), checks the quiescent state, drives the workload through
// PiClient connections for --seconds, checks again, and prints a summary
// followed by one JSON result line. See NOTES.md for the workloads, the
// metrics and how each per-layer number is obtained.
//
// Usage: pibench --workload read_patch|oltp_point|htap_batch --seed N
//                --seconds S --trace 0|1 [--work-dir DIR]

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/client.h"
#include "common/check.h"
#include "common/epoch_gc.h"
#include "dataset.h"
#include "engine/engine.h"
#include "harness.h"
#include "obs/metrics.h"
#include "patchindex/manager.h"
#include "patchindex/patch_set.h"
#include "server/server.h"
#include "workload/generator.h"

namespace pibench {
namespace {

using patchindex::Catalog;
using patchindex::ConstraintKind;
using patchindex::Engine;
using patchindex::EngineOptions;
using patchindex::PatchIndex;
using patchindex::QueryResult;
using patchindex::Result;
using patchindex::Status;
using patchindex::StatusCode;
using patchindex::net::PiClient;
using patchindex::net::PiServer;
using patchindex::net::ServerOptions;
namespace obs = patchindex::obs;

// ------------------------------------------------------------ statements

enum Cls { kDistinct, kSort, kJoin, kPoint, kInsert, kUpdate, kDelete };
constexpr int kNumCls = 7;
const char* const kClsName[kNumCls] = {"distinct", "sort",   "join",  "point",
                                       "insert",   "update", "delete"};
bool IsRead(int cls) { return cls <= kPoint; }

enum class Workload { kReadPatch, kOltpPoint, kHtapBatch };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/pibench-work";
};

/// Phase times of one statement as the server reported them (the wire
/// profile block), milliseconds.
struct Phases {
  double parse = 0, bind = 0, optimize = 0, execute = 0, commit_wait = 0,
         commit = 0, total = 0;
  double Sum() const {
    return parse + bind + optimize + execute + commit_wait + commit;
  }
};

struct Sample {
  int cls = 0;
  double latency_ms = 0;  // client-observed (from the due time if paced)
  double done_ms = 0;     // completion, since the run's start
  bool ok = false;        // false: refused with SERVER_BUSY
  bool traced = false;
  bool profiled = false;
  Phases ph;
};

/// One DML statement as issued, for the maintenance replay: rows for an
/// insert, else the key range [lo, hi) and, for an update, the new value
/// (`key + value` when add_key is set, `value` otherwise).
struct DmlRecord {
  std::string table;
  int cls = kInsert;
  std::vector<std::pair<std::int64_t, std::int64_t>> rows;
  std::int64_t lo = 0, hi = 0;
  bool add_key = false;
  std::int64_t value = 0;
};

struct ClientResult {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0, failed = 0, refused = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t rows_changed = 0;
  std::uint64_t explained = 0, explained_patch = 0;
  /// From the connection's `.counters` (traced runs only).
  bool have_counters = false;
  std::uint64_t serial_fallbacks = 0;
  std::vector<double> lateness_ms;
  std::vector<std::string> errors;

  void Fail(std::string message) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(message));
  }
};

// --------------------------------------------------------------- tables

struct IndexSpec {
  std::string table;
  std::string column;
  ConstraintKind kind;
  const char* kind_name;
};

/// What a workload loads: tables in load order plus the indexes built
/// on them once loaded.
struct Plan {
  Workload workload;
  bool durable = false;
  std::vector<TableData> tables;
  std::vector<std::vector<std::string>> load_sql;  // per table
  std::vector<IndexSpec> indexes;
  std::int64_t fact_rows = 0;   // rows of u/s (or pu/ps)
  std::int64_t dim_rows = 0;    // rows of d; the s.val domain
  std::size_t clients = 0;      // concurrent connections during the run
  std::size_t num_threads = 0;  // engine morsel workers
  std::size_t query_workers = 0;
  int setup_reps = 3;
};

constexpr double kExceptionRate = 0.05;

Plan MakePlan(Workload w, const Options& opt) {
  Plan p;
  p.workload = w;
  const std::size_t nproc =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  p.num_threads = nproc;
  p.query_workers = nproc;
  p.clients = std::min<std::size_t>(4, nproc);
  if (w == Workload::kOltpPoint) {
    p.durable = true;
    p.fact_rows = 100'000;
    p.tables.push_back(
        MakeNucTable("pu", p.fact_rows, kExceptionRate, opt.seed * 3 + 1));
    p.tables.push_back(MakeNscTable("ps", p.fact_rows, kExceptionRate,
                                    10 * p.fact_rows, opt.seed * 3 + 2));
    p.indexes = {{"pu", "val", ConstraintKind::kNearlyUnique, "nuc"},
                 {"ps", "val", ConstraintKind::kNearlySorted, "nsc"}};
  } else {
    p.fact_rows = 1'000'000;
    p.dim_rows = 50'000;
    p.tables.push_back(
        MakeNucTable("u", p.fact_rows, kExceptionRate, opt.seed * 3 + 1));
    p.tables.push_back(MakeNscTable("s", p.fact_rows, kExceptionRate,
                                    p.dim_rows, opt.seed * 3 + 2));
    p.tables.push_back(MakeDimTable("d", p.dim_rows));
    p.indexes = {{"u", "val", ConstraintKind::kNearlyUnique, "nuc"},
                 {"s", "val", ConstraintKind::kNearlySorted, "nsc"},
                 {"d", "key", ConstraintKind::kNearlySorted, "nsc"}};
    // One paced writer plus closed-loop readers.
    if (w == Workload::kHtapBatch) {
      p.clients = std::max<std::size_t>(2, p.clients);
    }
  }
  for (const TableData& t : p.tables) {
    p.load_sql.push_back(LoadStatements(t, 5000));
  }
  return p;
}

// -------------------------------------------------------------- instance

/// One engine + server pair holding a loaded workload.
struct Instance {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<PiServer> server;
  std::string data_dir;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    if (server != nullptr) server->Stop();
    server.reset();
    engine.reset();
    if (!data_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
    }
  }
};

bool Connect(PiClient* client, std::uint16_t port, std::string* error) {
  Status st = client->Connect("127.0.0.1", port);
  if (!st.ok()) *error = "connect: " + st.ToString();
  return st.ok();
}

/// Builds a fresh engine and server and loads `plan` through the wire.
/// `setup_s` covers everything from engine construction to the last
/// index; `discovery_s` the `.index` calls alone.
bool SetUp(const Plan& plan, const Options& opt, int rep, Instance* inst,
           double* setup_s, double* discovery_s, std::string* error) {
  const Clock::time_point t0 = Clock::now();
  EngineOptions eo;
  eo.num_threads = plan.num_threads;
  if (plan.durable) {
    inst->data_dir = opt.work_dir + "/data-" + std::to_string(getpid()) +
                     "-" + std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(inst->data_dir, ec);
    eo.durability.data_dir = inst->data_dir;
    eo.durability.fsync = true;
    // Low enough that the single-row commits of one run trigger several
    // checkpoints per table.
    eo.durability.checkpoint_wal_bytes = 32 << 10;
  }
  inst->engine = std::make_unique<Engine>(eo);
  if (!inst->engine->recovery_status().ok()) {
    *error = "engine: " + inst->engine->recovery_status().ToString();
    return false;
  }
  ServerOptions so;
  so.port = 0;
  so.query_workers = plan.query_workers;
  inst->server = std::make_unique<PiServer>(*inst->engine, so);
  Status st = inst->server->Start();
  if (!st.ok()) {
    *error = "server: " + st.ToString();
    return false;
  }
  PiClient client;
  if (!Connect(&client, inst->server->port(), error)) return false;
  for (std::size_t t = 0; t < plan.tables.size(); ++t) {
    Result<QueryResult> created =
        client.Sql(CreateTableSql(plan.tables[t].name));
    if (!created.ok()) {
      *error = "create: " + created.status().ToString();
      return false;
    }
    std::uint64_t loaded = 0;
    for (const std::string& sql : plan.load_sql[t]) {
      Result<QueryResult> r = client.Sql(sql);
      if (!r.ok()) {
        *error = "load: " + r.status().ToString();
        return false;
      }
      loaded += r.value().rows_affected;
    }
    if (loaded != plan.tables[t].num_rows()) {
      *error = "load: wrong row count for " + plan.tables[t].name;
      return false;
    }
  }
  double discovery_ms = 0;
  for (const IndexSpec& idx : plan.indexes) {
    const Clock::time_point i0 = Clock::now();
    Result<std::string> out = client.Meta(".index " + idx.table + " " +
                                          idx.column + " " + idx.kind_name);
    discovery_ms += MsSince(i0);
    if (!out.ok() || out.value().rfind("created", 0) != 0) {
      *error = "index: " + (out.ok() ? out.value() : out.status().ToString());
      return false;
    }
  }
  *setup_s = MsSince(t0) / 1000.0;
  *discovery_s = discovery_ms / 1000.0;
  return true;
}

// --------------------------------------------------- quiescent inspection

struct IndexState {
  std::string label;  // table.column(kind)
  std::uint64_t rows = 0, patches = 0, bytes = 0;
  bool invariant = false;
  bool bitmap = false;
  std::uint64_t shards = 0;
  double utilization = 0;
  double rate() const {
    return rows == 0 ? 0.0 : static_cast<double>(patches) / rows;
  }
};

struct DbState {
  std::vector<TableData> tables;
  std::vector<IndexState> indexes;
  const TableData* Find(const std::string& name) const {
    for (const TableData& t : tables) {
      if (t.name == name) return &t;
    }
    return nullptr;
  }
  std::uint64_t total_rows() const {
    std::uint64_t n = 0;
    for (const TableData& t : tables) n += t.num_rows();
    return n;
  }
};

/// Reads every table of `plan` and the state of its indexes straight from
/// the engine, under each table's shared lock. Only valid while no
/// statement runs.
DbState Inspect(Engine& engine, const Plan& plan) {
  DbState state;
  for (const TableData& spec : plan.tables) {
    Catalog::TableRef ref = engine.catalog().Ref(spec.name);
    std::shared_lock<std::shared_mutex> lock(*ref.lock);
    TableData t;
    t.name = spec.name;
    const patchindex::PartitionedTable& pt = *ref.ptable;
    for (std::size_t p = 0; p < pt.num_partitions(); ++p) {
      // Commits fold their deltas, so at rest the base columns are the
      // visible rows.
      const patchindex::Table& part = pt.partition(p);
      PIDX_CHECK(part.pdt().empty());
      const std::vector<std::int64_t>& keys = part.column(0).i64_data();
      const std::vector<std::int64_t>& vals = part.column(1).i64_data();
      t.key.insert(t.key.end(), keys.begin(), keys.end());
      t.val.insert(t.val.end(), vals.begin(), vals.end());
    }
    for (const PatchIndex* idx : engine.catalog().manager().IndexesOn(pt)) {
      IndexState is;
      is.label = spec.name + "." + pt.schema().field(idx->column()).name +
                 (idx->constraint() == ConstraintKind::kNearlyUnique
                      ? "(nuc)"
                      : "(nsc)");
      is.rows = idx->NumRows();
      is.patches = idx->NumPatches();
      is.bytes = idx->MemoryUsageBytes();
      is.invariant = idx->CheckInvariant();
      if (const auto* bm = dynamic_cast<const patchindex::BitmapPatchSet*>(
              &idx->patches())) {
        is.bitmap = true;
        is.shards = bm->bitmap().num_shards();
        is.utilization = bm->bitmap().Utilization();
      }
      state.indexes.push_back(is);
    }
    state.tables.push_back(std::move(t));
  }
  return state;
}

void PrintDrift(const char* when, const DbState& s) {
  std::printf("drift %-5s:", when);
  for (const TableData& t : s.tables) {
    std::printf(" %s=%zu rows", t.name.c_str(), t.num_rows());
  }
  std::printf("\n");
  for (const IndexState& i : s.indexes) {
    std::printf("  index %-12s e=%.5f patches=%llu shards=%llu util=%.5f "
                "invariant=%s\n",
                i.label.c_str(), i.rate(),
                static_cast<unsigned long long>(i.patches),
                static_cast<unsigned long long>(i.shards), i.utilization,
                i.invariant ? "ok" : "VIOLATED");
  }
}

/// Aggregate exception rate across the workload's indexes.
double ExceptionRate(const DbState& s) {
  std::uint64_t rows = 0, patches = 0;
  for (const IndexState& i : s.indexes) {
    rows += i.rows;
    patches += i.patches;
  }
  return rows == 0 ? 0.0 : static_cast<double>(patches) / rows;
}

// ---------------------------------------------------------- result checks

const std::vector<std::int64_t>& Col(const QueryResult& r, std::size_t c) {
  static const std::vector<std::int64_t> kEmpty;
  return c < r.rows.columns.size() ? r.rows.columns[c].i64 : kEmpty;
}

bool NoDuplicates(std::vector<std::int64_t> v) {
  std::sort(v.begin(), v.end());
  return std::adjacent_find(v.begin(), v.end()) == v.end();
}

/// The in-run output checks; an empty string means the result is valid.
std::string CheckRead(int cls, const QueryResult& r, std::int64_t dim_rows) {
  switch (cls) {
    case kDistinct:
      if (!NoDuplicates(Col(r, 0))) return "distinct output has duplicates";
      return "";
    case kSort: {
      const std::vector<std::int64_t>& v = Col(r, 1);
      if (v.size() != r.rows.num_rows() ||
          !std::is_sorted(v.begin(), v.end())) {
        return "sort output is not ascending";
      }
      return "";
    }
    case kJoin: {
      const std::vector<std::int64_t>& keys = Col(r, 0);
      const std::vector<std::int64_t>& counts = Col(r, 1);
      if (keys.size() != counts.size() || !NoDuplicates(keys)) {
        return "join output has duplicate groups";
      }
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] < 0 || keys[i] >= dim_rows || counts[i] <= 0) {
          return "join output has an invalid group";
        }
      }
      return "";
    }
    default:
      return "";
  }
}

/// The result's first two columns as sorted pairs, swapped when `swap`.
std::vector<std::pair<std::int64_t, std::int64_t>> SortedPairs(
    const QueryResult& r, bool swap) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  const std::vector<std::int64_t>& a = Col(r, 0);
  const std::vector<std::int64_t>& b = Col(r, 1);
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    out.emplace_back(swap ? b[i] : a[i], swap ? a[i] : b[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs every read template the workload issues on a few deterministic
/// parameter sets and compares each answer with the reference computed
/// from a plain scan of `state`. Returns the number of mismatches.
int ReferenceChecks(PiClient& client, const Plan& plan, const DbState& state,
                    std::uint64_t seed, std::vector<std::string>* errors) {
  int bad = 0;
  auto fail = [&](const std::string& what) {
    ++bad;
    if (errors->size() < 5) errors->push_back(what);
  };
  auto run = [&](const std::string& sql) -> std::optional<QueryResult> {
    Result<QueryResult> r = client.Sql(sql);
    if (!r.ok()) {
      fail("reference query failed: " + r.status().ToString());
      return std::nullopt;
    }
    return std::move(r).value();
  };
  std::mt19937_64 rng(seed);
  if (plan.workload == Workload::kOltpPoint) {
    for (const char* name : {"pu", "ps"}) {
      const TableData* t = state.Find(name);
      std::map<std::int64_t, std::int64_t> ref;
      for (std::size_t i = 0; i < t->num_rows(); ++i) {
        ref[t->key[i]] = t->val[i];
      }
      // Keys up to 2000 past the loaded range hit rows the run inserted.
      for (int i = 0; i < 25; ++i) {
        const auto key =
            static_cast<std::int64_t>(rng() % (plan.fact_rows + 2000));
        std::optional<QueryResult> r = run(PointSql(name, key));
        if (!r) continue;
        const auto it = ref.find(key);
        const bool match =
            it == ref.end()
                ? r->rows.num_rows() == 0
                : r->rows.num_rows() == 1 && Col(*r, 0)[0] == key &&
                      Col(*r, 1)[0] == it->second;
        if (!match) fail(std::string("point reference mismatch on ") + name);
      }
    }
    return bad;
  }
  const TableData* u = state.Find("u");
  const TableData* s = state.Find("s");
  const TableData* d = state.Find("d");
  const std::int64_t width = plan.fact_rows / 10;
  for (int i = 0; i < 2; ++i) {
    const auto lo =
        static_cast<std::int64_t>(rng() % (plan.fact_rows - width));
    if (std::optional<QueryResult> r = run(DistinctSql(lo, lo + width))) {
      std::vector<std::int64_t> got = Col(*r, 0);
      std::sort(got.begin(), got.end());
      if (got != RefDistinct(*u, lo, lo + width)) {
        fail("distinct reference mismatch");
      }
    }
    if (std::optional<QueryResult> r = run(SortSql(lo, lo + width))) {
      if (!CheckRead(kSort, *r, plan.dim_rows).empty() ||
          SortedPairs(*r, true) != RefSort(*s, lo, lo + width)) {
        fail("sort reference mismatch");
      }
    }
    if (std::optional<QueryResult> r = run(JoinSql(lo, lo + width))) {
      if (SortedPairs(*r, false) != RefJoin(*d, *s, lo, lo + width)) {
        fail("join reference mismatch");
      }
    }
  }
  return bad;
}

// ------------------------------------------------------------- the run

/// Keeps one EpochGc guard pinned at all times, handing over to a fresh
/// guard every few milliseconds. EpochGc::TryReclaim computes its horizon
/// before it splices the retired list under its mutex, so a version
/// retired in between is freed against that stale horizon even if a
/// reader pinned and loaded it meanwhile — a use-after-free that crashes
/// about one oltp_point run in ten (NOTES.md, "Known engine bug"). With
/// a guard always pinned, no horizon can pass a retirement that happens
/// after it was computed; reclamation only lags by one hand-over period.
class EpochShield {
 public:
  EpochShield()
      : thread_([this] {
          auto held = std::make_unique<patchindex::EpochGc::Guard>(
              patchindex::EpochGc::Global());
          while (!stop_.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            auto next = std::make_unique<patchindex::EpochGc::Guard>(
                patchindex::EpochGc::Global());
            held = std::move(next);
          }
        }) {}
  ~EpochShield() {
    stop_ = true;
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Shared {
  const Options* opt = nullptr;
  const Plan* plan = nullptr;
  std::uint16_t port = 0;
  Clock::time_point start, end;
  double run_ms = 0;
  SpanLog* spans = nullptr;  // non-null in the traced run
  std::mutex dml_mu;
  std::vector<DmlRecord> dml_log;
  std::atomic<std::int64_t> nsc_tail{0};

  void Log(DmlRecord rec) {
    std::lock_guard<std::mutex> lock(dml_mu);
    dml_log.push_back(std::move(rec));
  }
};

/// Span identifier of a client's n-th statement, shared by every span
/// recorded for it (its EXPLAIN sample and the statement itself).
double RequestId(int tid, std::uint64_t n) {
  return static_cast<double>(tid) * 1e9 + static_cast<double>(n);
}

std::uint64_t ClientSeed(std::uint64_t seed, int tid) {
  return seed * 1'000'003ull + 7919ull * static_cast<std::uint64_t>(tid + 1);
}

/// Runs one statement and records its sample. Returns the result when
/// it succeeded; errors and SERVER_BUSY refusals count as failed, and a
/// refusal is recorded with the whole run as its latency (it misses any
/// latency limit).
std::optional<QueryResult> Issue(PiClient& client, Shared& sh,
                                 ClientResult& cr, int tid, int cls,
                                 const std::string& sql,
                                 Clock::time_point issued, bool traced) {
  ++cr.attempted;
  const Clock::time_point t0 = Clock::now();
  Result<QueryResult> r = client.Sql(sql);
  Sample s;
  s.cls = cls;
  s.traced = traced;
  s.latency_ms = MsSince(issued);
  s.done_ms = MsSince(sh.start);
  if (!r.ok()) {
    if (r.status().code() == StatusCode::kUnavailable && client.connected()) {
      ++cr.refused;
      s.latency_ms = sh.run_ms;
      cr.samples.push_back(s);
    }
    cr.Fail(std::string(kClsName[cls]) + ": " + r.status().ToString());
    if (!client.connected()) {
      std::string error;
      Connect(&client, sh.port, &error);
    }
    return std::nullopt;
  }
  s.ok = true;
  if (const auto& p = r.value().profile) {
    s.profiled = true;
    s.ph = {p->parse_ms,     p->bind_ms,   p->optimize_ms, p->execute_ms,
            p->commit_wait_ms, p->commit_ms, p->total_ms};
  }
  if (traced) {
    sh.spans->Add("server", kClsName[cls], t0, tid,
                  {{"request", RequestId(tid, cr.attempted)},
                   {"parse_ms", s.ph.parse},
                   {"bind_ms", s.ph.bind},
                   {"optimize_ms", s.ph.optimize},
                   {"execute_ms", s.ph.execute},
                   {"commit_wait_ms", s.ph.commit_wait},
                   {"commit_ms", s.ph.commit},
                   {"server_total_ms", s.ph.total}});
  }
  cr.samples.push_back(s);
  if (IsRead(cls)) {
    ++cr.reads_ok;
  } else {
    cr.rows_changed += r.value().rows_affected;
  }
  return std::move(r).value();
}

void ExpectAffected(ClientResult& cr, int cls, const QueryResult& r,
                    std::uint64_t expected) {
  if (r.rows_affected != expected) {
    cr.Fail(std::string(kClsName[cls]) + ": rows_affected " +
            std::to_string(r.rows_affected) + ", expected " +
            std::to_string(expected));
  }
}

/// Traced runs: EXPLAIN the statement about to run and count whether its
/// plan carries the Patch* operator of its class.
void ExplainCheck(PiClient& client, Shared& sh, ClientResult& cr, int tid,
                  int cls, const std::string& sql) {
  static const char* const kOperator[] = {"PatchDistinct", "PatchSort",
                                          "PatchJoin"};
  const Clock::time_point t0 = Clock::now();
  Result<QueryResult> r = client.Sql("EXPLAIN " + sql);
  // The statement this samples is issued next, as number attempted + 1.
  sh.spans->Add("optimizer", "explain", t0, tid,
                {{"request", RequestId(tid, cr.attempted + 1)}});
  if (!r.ok()) {
    cr.Fail("explain: " + r.status().ToString());
    return;
  }
  ++cr.explained;
  for (const patchindex::ColumnVector& c : r.value().rows.columns) {
    for (const std::string& line : c.str) {
      if (line.find(kOperator[cls]) != std::string::npos) {
        ++cr.explained_patch;
        return;
      }
    }
  }
}

/// Traced runs: the connection's executor-path counters.
void ReadCounters(PiClient& client, Shared& sh, ClientResult& cr, int tid) {
  const Clock::time_point t0 = Clock::now();
  Result<std::string> out = client.Meta(".counters");
  sh.spans->Add("engine", "counters", t0, tid);
  const std::string key = "serial_fallbacks=";
  const std::size_t at = out.ok() ? out.value().find(key) : std::string::npos;
  if (at == std::string::npos) {
    cr.Fail("counters: unexpected reply");
    return;
  }
  cr.have_counters = true;
  cr.serial_fallbacks = std::strtoull(out.value().c_str() + at + key.size(),
                                      nullptr, 10);
}

/// Closed-loop reader over the read_patch mix: distinct / sort / join
/// over random 10% key ranges.
void ReadClient(Shared& sh, int tid, ClientResult& cr) {
  PiClient client;
  std::string error;
  if (!Connect(&client, sh.port, &error)) {
    cr.Fail(error);
    return;
  }
  std::mt19937_64 rng(ClientSeed(sh.opt->seed, tid));
  const std::int64_t n = sh.plan->fact_rows;
  const std::int64_t width = n / 10;
  std::this_thread::sleep_until(sh.start);
  for (std::uint64_t i = 0; Clock::now() < sh.end; ++i) {
    const int cls = static_cast<int>(rng() % 3);
    const auto lo = static_cast<std::int64_t>(rng() % (n - width));
    const std::string sql = cls == kDistinct ? DistinctSql(lo, lo + width)
                            : cls == kSort   ? SortSql(lo, lo + width)
                                             : JoinSql(lo, lo + width);
    const bool traced = sh.spans != nullptr && i % 2 == 0;
    if (traced && i % 8 == 0) ExplainCheck(client, sh, cr, tid, cls, sql);
    std::optional<QueryResult> r =
        Issue(client, sh, cr, tid, cls, sql, Clock::now(), traced);
    if (!r) continue;
    const std::string bad = CheckRead(cls, *r, sh.plan->dim_rows);
    if (!bad.empty()) cr.Fail(bad);
  }
  if (sh.spans != nullptr) ReadCounters(client, sh, cr, tid);
}

/// The keys one oltp_point client owns in one table, with their values:
/// clients write disjoint keys, so each can predict its own rows exactly.
struct OwnedKeys {
  std::vector<std::int64_t> keys;
  std::unordered_map<std::int64_t, std::pair<std::size_t, std::int64_t>> at;

  void Add(std::int64_t key, std::int64_t val) {
    at[key] = {keys.size(), val};
    keys.push_back(key);
  }
  void Remove(std::int64_t key) {
    const std::size_t i = at[key].first;
    keys[i] = keys.back();
    at[keys[i]].first = i;
    keys.pop_back();
    at.erase(key);
  }
};

/// Closed-loop OLTP client: mostly point SELECTs, plus single-row
/// INSERT / UPDATE / DELETE balanced so the row count stays put.
void OltpClient(Shared& sh, int tid, ClientResult& cr) {
  PiClient client;
  std::string error;
  if (!Connect(&client, sh.port, &error)) {
    cr.Fail(error);
    return;
  }
  const Plan& plan = *sh.plan;
  const auto nclients = static_cast<std::int64_t>(plan.clients);
  const std::int64_t n = plan.fact_rows;
  // Table 0 is the NUC table pu, table 1 the NSC table ps.
  OwnedKeys owned[2];
  for (int t = 0; t < 2; ++t) {
    const TableData& data = plan.tables[t];
    for (std::size_t r = static_cast<std::size_t>(tid); r < data.num_rows();
         r += static_cast<std::size_t>(nclients)) {
      owned[t].Add(data.key[r], data.val[r]);
    }
  }
  std::mt19937_64 rng(ClientSeed(sh.opt->seed, tid));
  auto coin = [&](double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  };
  std::int64_t inserted = 0;
  std::int64_t fresh = 0;
  // New values follow each table's distribution, so drift stays small:
  // NUC mostly fresh unique values, NSC mostly ascending at the tail.
  auto new_value = [&](int t) -> std::int64_t {
    if (coin(kExceptionRate)) {
      return t == 0 ? static_cast<std::int64_t>(rng() % kNucExceptionDomain)
                    : static_cast<std::int64_t>(rng() % (10 * n));
    }
    return t == 0 ? 2'000'000'000 + tid * 100'000'000ll + fresh++
                  : 10 * n + sh.nsc_tail.fetch_add(1);
  };
  // Every NSC update makes its row a patch (§5.3), so NSC updates mostly
  // revisit a small hot set of rows this client already updated: the
  // exception rate then stays put instead of climbing by one row per
  // update.
  constexpr std::size_t kHotRows = 32;
  std::vector<std::int64_t> hot;
  std::this_thread::sleep_until(sh.start);
  for (std::uint64_t i = 0; Clock::now() < sh.end; ++i) {
    const int t = static_cast<int>(rng() % 2);
    const std::string& name = plan.tables[t].name;
    const double pick = std::uniform_real_distribution<double>(0, 1)(rng);
    const int cls = pick < 0.70 ? kPoint
                    : pick < 0.80 ? kInsert
                    : pick < 0.90 ? kUpdate
                                  : kDelete;
    const bool traced = sh.spans != nullptr && i % 2 == 0;
    DmlRecord rec;
    rec.table = name;
    rec.cls = cls;
    std::string sql;
    std::int64_t key = 0, val = 0;
    if (cls == kPoint) {
      key = static_cast<std::int64_t>(rng() % n);
      sql = PointSql(name, key);
    } else if (cls == kInsert) {
      key = n + tid + nclients * inserted;
      val = new_value(t);
      ++inserted;
      rec.rows = {{key, val}};
      sql = InsertSql(name, rec.rows);
    } else {
      if (owned[t].keys.empty()) continue;
      key = owned[t].keys[rng() % owned[t].keys.size()];
      if (t == 1 && cls == kUpdate) {
        if (hot.size() < kHotRows) {
          hot.push_back(key);
        } else {
          key = hot[rng() % hot.size()];
        }
      } else if (t == 1) {
        hot.erase(std::remove(hot.begin(), hot.end(), key), hot.end());
      }
      rec.lo = key;
      rec.hi = key + 1;
      if (cls == kUpdate) {
        val = new_value(t);
        rec.value = val;
        sql = "UPDATE " + name + " SET val = " + std::to_string(val) +
              " WHERE key = " + std::to_string(key);
      } else {
        sql = "DELETE FROM " + name + " WHERE key = " + std::to_string(key);
      }
    }
    std::optional<QueryResult> r =
        Issue(client, sh, cr, tid, cls, sql, Clock::now(), traced);
    if (!r) continue;
    if (cls == kPoint) {
      const QueryResult& q = *r;
      std::string bad;
      if (q.rows.num_rows() > 1 ||
          (q.rows.num_rows() == 1 && Col(q, 0)[0] != key)) {
        bad = "point returned a wrong row";
      } else if (key % nclients == tid) {
        const auto it = owned[t].at.find(key);
        const bool present = it != owned[t].at.end();
        if (present != (q.rows.num_rows() == 1) ||
            (present && Col(q, 1)[0] != it->second.second)) {
          bad = "point disagrees with the client's own writes";
        }
      }
      if (!bad.empty()) cr.Fail(bad);
      continue;
    }
    ExpectAffected(cr, cls, *r, 1);
    if (cls == kInsert) {
      owned[t].Add(key, val);
    } else if (cls == kUpdate) {
      owned[t].at[key].second = val;
    } else {
      owned[t].Remove(key);
    }
    sh.Log(std::move(rec));
  }
  if (sh.spans != nullptr) ReadCounters(client, sh, cr, tid);
}

/// The paced htap_batch writer: a fixed statement rate, open loop, each
/// latency timed from the statement's due time. Statements cycle through
/// {u, s} x {10, 100, 1000 rows} x {INSERT, UPDATE, DELETE}, so inserts
/// and deletes balance. Deletes consume fresh 1000-key blocks from the
/// front of a shuffled block order; updates stay in its last two blocks,
/// which deletes never reach, so every statement's row count is known in
/// advance.
void HtapWriter(Shared& sh, int tid, ClientResult& cr) {
  constexpr double kStatementsPerSecond = 10;
  constexpr std::int64_t kBlock = 1000;
  static const std::int64_t kSizes[] = {10, 100, 1000};
  PiClient client;
  std::string error;
  if (!Connect(&client, sh.port, &error)) {
    cr.Fail(error);
    return;
  }
  const Plan& plan = *sh.plan;
  const std::int64_t n = plan.fact_rows;
  const std::int64_t blocks = n / kBlock;
  std::mt19937_64 rng(ClientSeed(sh.opt->seed, tid));
  std::vector<std::int64_t> order[2];
  std::int64_t next_delete[2] = {0, 0};
  std::int64_t next_key[2] = {n, n};
  for (auto& o : order) {
    o.resize(static_cast<std::size_t>(blocks));
    for (std::int64_t b = 0; b < blocks; ++b) o[b] = b;
    std::shuffle(o.begin(), o.end(), rng);
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kStatementsPerSecond));
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due = sh.start + period * static_cast<long>(i);
    if (due >= sh.end) break;
    std::this_thread::sleep_until(due);
    cr.lateness_ms.push_back(MsSince(due));
    const int t = static_cast<int>((i / 9) % 2);  // 0: u (NUC), 1: s (NSC)
    const std::int64_t g = kSizes[(i / 3) % 3];
    const int cls = kInsert + static_cast<int>(i % 3);
    const std::string& name = plan.tables[t].name;
    DmlRecord rec;
    rec.table = name;
    rec.cls = cls;
    std::string sql;
    if (cls == kInsert) {
      for (std::int64_t k = 0; k < g; ++k) {
        const std::int64_t key = next_key[t]++;
        const bool exception =
            std::uniform_real_distribution<double>(0, 1)(rng) < kExceptionRate;
        // NUC: fresh unique values; NSC: the tail value, which keeps s
        // sorted and every row joinable with d.
        const std::int64_t domain =
            t == 0 ? kNucExceptionDomain : plan.dim_rows;
        const std::int64_t val =
            exception ? static_cast<std::int64_t>(rng() % domain)
                      : (t == 0 ? 4'000'000'000 + key : plan.dim_rows - 1);
        rec.rows.emplace_back(key, val);
      }
      sql = InsertSql(name, rec.rows);
    } else {
      // Updates alternate between the last two blocks of the order: an
      // NSC update turns every row it touches into a patch, so revisiting
      // the same rows keeps the exception-rate drift small.
      const std::size_t pos =
          cls == kDelete ? static_cast<std::size_t>(next_delete[t]++)
                         : static_cast<std::size_t>(blocks - 1 - (i / 18) % 2);
      const std::int64_t block = order[t][pos];
      rec.lo = block * kBlock;
      rec.hi = rec.lo + g;
      const std::string range = " WHERE key >= " + std::to_string(rec.lo) +
                                " AND key < " + std::to_string(rec.hi);
      if (cls == kDelete) {
        sql = "DELETE FROM " + name + range;
      } else if (t == 0) {
        // Fresh values, unique within and across statements.
        rec.add_key = true;
        rec.value = 5'000'000'000 + static_cast<std::int64_t>(i) * 2'000'000;
        sql = "UPDATE u SET val = key + " + std::to_string(rec.value) + range;
      } else {
        // The sorted value the range started with, so s stays nearly
        // sorted and every row still joins with d.
        rec.value = rec.lo * plan.dim_rows / n;
        sql = "UPDATE s SET val = " + std::to_string(rec.value) + range;
      }
    }
    const bool traced = sh.spans != nullptr;
    std::optional<QueryResult> r =
        Issue(client, sh, cr, tid, cls, sql, due, traced);
    if (!r) continue;
    ExpectAffected(cr, cls, *r, static_cast<std::uint64_t>(g));
    sh.Log(std::move(rec));
  }
}

// ------------------------------------------------- maintenance replay

/// Applies `rec` to a standalone table's PDT (not committed).
void BufferDml(patchindex::Table& t, const DmlRecord& rec) {
  if (rec.cls == kInsert) {
    for (const auto& [k, v] : rec.rows) {
      t.BufferInsert(patchindex::MakeGeneratorRow(k, v));
    }
    return;
  }
  const patchindex::Column& keys = std::as_const(t).column(0);
  for (patchindex::RowId r = 0; r < t.num_rows(); ++r) {
    const std::int64_t k = keys.GetInt64(r);
    if (k < rec.lo || k >= rec.hi) continue;
    if (rec.cls == kUpdate) {
      (void)t.BufferModify(
          r, 1, patchindex::Value(rec.add_key ? k + rec.value : rec.value));
    } else {
      (void)t.BufferDelete(r);
    }
  }
}

patchindex::Table Standalone(const TableData& data) {
  patchindex::Table t(patchindex::Schema(
      {{"key", patchindex::ColumnType::kInt64},
       {"val", patchindex::ColumnType::kInt64}}));
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    t.AppendRow(patchindex::MakeGeneratorRow(data.key[i], data.val[i]));
  }
  return t;
}

/// Replays the run's DML on standalone copies of the tables, one with
/// the workload's PatchIndex and one without, and returns per kind
/// (insert/update/delete) the samples of CommitUpdateQuery time minus
/// Table::Checkpoint time — the §5 handlers alone.
void ReplayMaintenance(const Plan& plan, const std::vector<DmlRecord>& log,
                       SpanLog* spans, std::vector<double> out[3]) {
  constexpr int kCapPerKind = 150;
  for (std::size_t ti = 0; ti < plan.tables.size(); ++ti) {
    const TableData& data = plan.tables[ti];
    const IndexSpec* spec = nullptr;
    for (const IndexSpec& s : plan.indexes) {
      if (s.table == data.name && s.column == "val") spec = &s;
    }
    if (spec == nullptr) continue;
    int count[3] = {0, 0, 0};
    bool any = false;
    for (const DmlRecord& rec : log) any = any || rec.table == data.name;
    if (!any) continue;
    patchindex::Table indexed = Standalone(data);
    patchindex::Table plain = Standalone(data);
    patchindex::PatchIndexManager manager;
    manager.CreateIndex(indexed, 1, spec->kind);
    for (const DmlRecord& rec : log) {
      if (rec.table != data.name) continue;
      const int kind = rec.cls - kInsert;
      if (count[kind] >= kCapPerKind) continue;
      ++count[kind];
      BufferDml(indexed, rec);
      BufferDml(plain, rec);
      const Clock::time_point c0 = Clock::now();
      (void)manager.CommitUpdateQuery(indexed);
      const double commit_ms = MsSince(c0);
      spans->Add("patchindex", "CommitUpdateQuery", c0, 0);
      const Clock::time_point k0 = Clock::now();
      plain.Checkpoint();
      const double checkpoint_ms = MsSince(k0);
      spans->Add("storage", "Table::Checkpoint", k0, 0);
      out[kind].push_back(commit_ms - checkpoint_ms);
    }
  }
}

// ------------------------------------------------------------- output

struct HistDelta {
  obs::HistogramSnapshot before;
  std::string name;
  void Mark(Engine& e, const std::string& n) {
    name = n;
    before = e.metrics().HistogramSnapshotOf(n);
  }
  obs::HistogramSnapshot Delta(Engine& e) const {
    obs::HistogramSnapshot now = e.metrics().HistogramSnapshotOf(name);
    now.Subtract(before);
    return now;
  }
};

std::uint64_t CounterValue(Engine& e, const std::string& name) {
  return e.metrics().GetCounter(name, "")->Value();
}

/// Where a traced statement's time goes: the client-observed mean split
/// into the server-side phases and what lies outside them (wire,
/// admission, result streaming). Means add up; percentiles do not.
void PrintBreakdown(const std::vector<Sample>& all) {
  std::printf("breakdown (traced statements, mean ms; share of client "
              "latency):\n");
  for (int c = 0; c < kNumCls; ++c) {
    double lat_sum = 0;
    Phases ph;
    std::size_t k = 0;
    std::vector<double> execute_share, outside_share;
    for (const Sample& s : all) {
      if (s.cls != c || !s.ok || !s.traced || !s.profiled) continue;
      lat_sum += s.latency_ms;
      ph.parse += s.ph.parse;
      ph.bind += s.ph.bind;
      ph.optimize += s.ph.optimize;
      ph.execute += s.ph.execute;
      ph.commit_wait += s.ph.commit_wait;
      ph.commit += s.ph.commit;
      ph.total += s.ph.total;
      execute_share.push_back(s.ph.execute / s.latency_ms);
      outside_share.push_back((s.latency_ms - s.ph.total) / s.latency_ms);
      ++k;
    }
    if (k == 0) continue;
    const double m = lat_sum / k;
    auto part = [&](const char* name, double sum) {
      std::printf("  %-8s %-12s %9.4f  %5.1f%%\n", kClsName[c], name, sum / k,
                  m > 0 ? sum / k / m * 100.0 : 0.0);
    };
    part("client", lat_sum);
    part("server", lat_sum - ph.total);
    part("parse", ph.parse);
    part("bind", ph.bind);
    part("optimize", ph.optimize);
    part("execute", ph.execute);
    part("commit_wait", ph.commit_wait);
    part("commit", ph.commit);
    part("unattrib", ph.total - ph.Sum());
    // The point-latency question: server or scan?
    if (c == kPoint) {
      std::printf("point SELECT: median %.0f%% of client latency in execute "
                  "(the scan), %.0f%% outside the engine (wire, admission, "
                  "result streaming)\n",
                  Median(execute_share) * 100.0, Median(outside_share) * 100.0);
    }
  }
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && opt->seconds > 0;
}

int Run(const Options& opt) {
  Workload w;
  if (opt.workload == "read_patch") {
    w = Workload::kReadPatch;
  } else if (opt.workload == "oltp_point") {
    w = Workload::kOltpPoint;
  } else if (opt.workload == "htap_batch") {
    w = Workload::kHtapBatch;
  } else {
    std::fprintf(stderr, "pibench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  const Plan plan = MakePlan(w, opt);
  const EpochShield shield;
  std::printf("pibench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("config: nproc=%u clients=%zu num_threads=%zu "
              "query_workers=%zu fact_rows=%lld dim_rows=%lld durable=%d\n",
              std::thread::hardware_concurrency(), plan.clients,
              plan.num_threads, plan.query_workers,
              static_cast<long long>(plan.fact_rows),
              static_cast<long long>(plan.dim_rows), plan.durable ? 1 : 0);

  // --- set-up, repeated; the last instance is the one measured.
  std::vector<double> setups, discoveries;
  auto inst = std::make_unique<Instance>();
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    if (rep > 0) inst = std::make_unique<Instance>();
    double setup_s = 0, discovery_s = 0;
    std::string error;
    if (!SetUp(plan, opt, rep, inst.get(), &setup_s, &discovery_s, &error)) {
      std::fprintf(stderr, "pibench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(setup_s);
    discoveries.push_back(discovery_s);
  }
  std::printf("setup: reps=%d", plan.setup_reps);
  for (double s : setups) std::printf(" %.3fs", s);
  std::printf("\n");
  Engine& engine = *inst->engine;
  const std::uint16_t port = inst->server->port();

  // --- quiescent start: invariants, drift, reference answers.
  std::vector<std::string> check_errors;
  int check_failures = 0;
  auto quiescent_check = [&](const char* when, std::uint64_t salt) {
    DbState state = Inspect(engine, plan);
    PrintDrift(when, state);
    for (const IndexState& i : state.indexes) {
      if (!i.invariant) {
        ++check_failures;
        check_errors.push_back(std::string(when) + ": invariant violated on " +
                               i.label);
      }
    }
    PiClient client;
    std::string error;
    if (!Connect(&client, port, &error)) {
      ++check_failures;
      check_errors.push_back(error);
      return state;
    }
    check_failures += ReferenceChecks(client, plan, state,
                                      opt.seed * 31 + salt, &check_errors);
    return state;
  };
  const DbState start_state = quiescent_check("start", 1);

  // --- the measured run.
  SpanLog spans(Clock::now());
  Shared sh;
  sh.opt = &opt;
  sh.plan = &plan;
  sh.port = port;
  sh.run_ms = opt.seconds * 1000.0;
  sh.spans = opt.trace ? &spans : nullptr;
  HistDelta server_queue, pool_queue, fsync, checkpoint;
  server_queue.Mark(engine, "pidx_wait_server_queue_us");
  pool_queue.Mark(engine, "pidx_wait_pool_queue_us");
  fsync.Mark(engine, "pidx_fsync_latency_us");
  checkpoint.Mark(engine, "pidx_checkpoint_duration_us");
  const std::uint64_t wal_before =
      CounterValue(engine, "pidx_wal_appended_bytes_total");

  std::vector<ClientResult> results(plan.clients);
  std::atomic<bool> sampling{true};
  std::int64_t live_versions_max = 0;
  std::thread sampler;
  if (opt.trace) {
    // engine.live_versions_max: the per-table live-version counts that
    // pi_stats.tables serves, sampled in-process so no extra connection
    // joins the run.
    sampler = std::thread([&] {
      while (sampling.load()) {
        std::int64_t live = 0;
        for (const TableData& t : plan.tables) {
          live += engine.catalog()
                      .VersionStatsFor(engine.catalog().Ref(t.name))
                      .live;
        }
        live_versions_max = std::max(live_versions_max, live);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  sh.start = Clock::now() + std::chrono::milliseconds(200);
  sh.end = sh.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < plan.clients; ++c) {
      const int tid = static_cast<int>(c);
      threads.emplace_back([&, tid] {
        if (w == Workload::kOltpPoint) {
          OltpClient(sh, tid, results[tid]);
        } else if (w == Workload::kHtapBatch && tid == 0) {
          HtapWriter(sh, tid, results[tid]);
        } else {
          ReadClient(sh, tid, results[tid]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  sampling = false;
  if (sampler.joinable()) sampler.join();

  // --- quiescent end.
  const DbState end_state = quiescent_check("end", 2);

  // --- aggregate.
  std::uint64_t attempted = 0, failed = 0, refused = 0,
                rows_changed = 0, explained = 0, explained_patch = 0,
                counter_reads = 0, serial = 0;
  std::vector<double> lateness;
  std::vector<Sample> all;
  for (const ClientResult& cr : results) {
    attempted += cr.attempted;
    failed += cr.failed;
    refused += cr.refused;
    rows_changed += cr.rows_changed;
    explained += cr.explained;
    explained_patch += cr.explained_patch;
    if (cr.have_counters) {
      counter_reads += cr.reads_ok;
      serial += cr.serial_fallbacks;
    }
    lateness.insert(lateness.end(), cr.lateness_ms.begin(),
                    cr.lateness_ms.end());
    all.insert(all.end(), cr.samples.begin(), cr.samples.end());
    for (const std::string& e : cr.errors) {
      std::fprintf(stderr, "pibench: %s\n", e.c_str());
    }
  }
  for (const std::string& e : check_errors) {
    std::fprintf(stderr, "pibench: check: %s\n", e.c_str());
  }
  failed += static_cast<std::uint64_t>(check_failures);

  // Latency percentiles are over the whole run, so p95 keeps dozens of
  // samples beyond it. Throughput is the median over kWindows equal
  // windows by completion time: a noise burst or the warm-up that hits
  // one or two windows cannot move it.
  constexpr int kWindows = 5;
  const double window_ms = sh.run_ms / kWindows;
  std::vector<double> lat[kNumCls], dml_lat;
  std::vector<double> ops(kWindows, 0.0);
  for (const Sample& s : all) {
    lat[s.cls].push_back(s.latency_ms);
    if (!IsRead(s.cls)) dml_lat.push_back(s.latency_ms);
    const auto w = static_cast<int>(s.done_ms / window_ms);
    if (s.ok && w >= 0 && w < kWindows) ops[w] += 1000.0 / window_ms;
  }
  std::vector<double> read_p50, read_p95;
  std::printf("%-9s %8s %10s %10s\n", "class", "count", "p50_ms", "p95_ms");
  for (int c = 0; c < kNumCls; ++c) {
    if (lat[c].empty()) continue;
    const double p50 = Percentile(lat[c], 0.5);
    const double p95 = Percentile(lat[c], 0.95);
    std::printf("%-9s %8zu %10.3f %10.3f\n", kClsName[c], lat[c].size(), p50,
                p95);
    if (IsRead(c)) {
      read_p50.push_back(p50);
      read_p95.push_back(p95);
    }
  }
  std::printf("windows ops/s:");
  for (double o : ops) std::printf(" %.1f", o);
  std::printf("\n");
  if (!lateness.empty()) {
    std::printf("writer: statements=%zu lateness p50=%.3fms p95=%.3fms "
                "max=%.3fms\n",
                lateness.size(), Percentile(lateness, 0.5),
                Percentile(lateness, 0.95), Percentile(lateness, 1.0));
  }
  std::printf("failures: attempted=%llu failed=%llu refused=%llu "
              "(checks failed=%d)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(refused), check_failures);

  // The gated end-to-end metrics are the ones every workload has; the
  // per-class ones follow by name, n/a where a workload does not issue
  // the class.
  MetricList e2e;
  e2e.Add("setup_s", Median(setups), "s");
  e2e.Add("ops_per_s", Median(ops), "1/s");
  e2e.Add("read_p50_ms", GeoMean(read_p50), "ms");
  e2e.Add("read_p95_ms", GeoMean(read_p95), "ms");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("end-to-end:\n");
  for (const auto& [name, v] : e2e.entries()) {
    std::printf("  %-18s %14.4f %s\n", name.c_str(), v.first, v.second.c_str());
  }
  auto print_class = [](const std::string& name, bool issued, double v) {
    if (issued) {
      std::printf("  %-18s %14.4f ms\n", name.c_str(), v);
    } else {
      std::printf("  %-18s %14s ms\n", name.c_str(), "n/a");
    }
  };
  for (int c = 0; c < kNumCls; ++c) {
    const std::string base = kClsName[c];
    print_class(base + "_p50_ms", !lat[c].empty(), Percentile(lat[c], 0.5));
    if (IsRead(c)) {
      print_class(base + "_p95_ms", !lat[c].empty(), Percentile(lat[c], 0.95));
    }
  }
  print_class("dml_p95_ms", !dml_lat.empty(), Percentile(dml_lat, 0.95));

  const bool correct = failed == 0;
  if (!opt.trace) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), e2e.Json().c_str());
    return 0;
  }

  // --- per-layer breakdown (traced run).
  std::vector<double> overhead[kNumCls], execute[kNumCls], commit[kNumCls];
  std::vector<double> parse, bind, optimize, unattributed, commit_wait, match;
  double traced_sum[kNumCls] = {}, untraced_sum[kNumCls] = {};
  std::size_t traced_n[kNumCls] = {}, untraced_n[kNumCls] = {};
  for (const Sample& s : all) {
    if (!s.ok) continue;
    if (s.traced) {
      traced_sum[s.cls] += s.latency_ms;
      ++traced_n[s.cls];
    } else {
      untraced_sum[s.cls] += s.latency_ms;
      ++untraced_n[s.cls];
    }
    if (!s.traced || !s.profiled) continue;
    overhead[s.cls].push_back(s.latency_ms - s.ph.total);
    execute[s.cls].push_back(s.ph.execute);
    if (!IsRead(s.cls)) {
      commit[s.cls].push_back(s.ph.commit);
      commit_wait.push_back(s.ph.commit_wait);
      if (s.cls != kInsert) match.push_back(s.ph.execute);
    }
    parse.push_back(s.ph.parse);
    bind.push_back(s.ph.bind);
    optimize.push_back(s.ph.optimize);
    unattributed.push_back(s.ph.total - s.ph.Sum());
  }
  // Traced vs untraced: per-class mean ratio, geometric mean over the
  // classes measured both ways. The paced writer traces every statement
  // and has no untraced twin.
  std::vector<double> ratios;
  for (int c = 0; c < kNumCls; ++c) {
    if (traced_n[c] > 0 && untraced_n[c] > 0) {
      ratios.push_back((traced_sum[c] / traced_n[c]) /
                       (untraced_sum[c] / untraced_n[c]));
    }
  }
  std::vector<double> maintenance[3];
  ReplayMaintenance(plan, sh.dml_log, &spans, maintenance);

  // Bitmap utilization across all bitmaps: live bits over physical
  // capacity, so deletes (which leave lost bits behind) lower it.
  std::uint64_t index_bytes = 0, index_rows = 0, shards = 0;
  double bitmap_bits = 0, bitmap_capacity = 0;
  for (const IndexState& i : end_state.indexes) {
    index_bytes += i.bytes;
    index_rows += i.rows;
    if (i.bitmap && i.utilization > 0) {
      shards += i.shards;
      bitmap_bits += static_cast<double>(i.rows);
      bitmap_capacity += static_cast<double>(i.rows) / i.utilization;
    }
  }
  const double utilization =
      bitmap_capacity > 0 ? bitmap_bits / bitmap_capacity : 0.0;
  const obs::HistogramSnapshot server_queue_d = server_queue.Delta(engine);
  const obs::HistogramSnapshot pool_queue_d = pool_queue.Delta(engine);
  const obs::HistogramSnapshot fsync_d = fsync.Delta(engine);
  const obs::HistogramSnapshot checkpoint_d = checkpoint.Delta(engine);
  const std::uint64_t wal_bytes =
      CounterValue(engine, "pidx_wal_appended_bytes_total") - wal_before;
  std::uint64_t resident = 0;
  {
    const Clock::time_point r0 = Clock::now();
    resident = engine.ApproxResidentBytes();
    spans.Add("storage", "ApproxResidentBytes", r0, 0);
  }

  MetricList layers;
  for (int c = 0; c < kNumCls; ++c) {
    layers.Add(std::string("server.overhead_ms_p50.") + kClsName[c],
               Median(overhead[c]), "ms");
  }
  layers.Add("server.queue_wait_us_p50", server_queue_d.Percentile(0.5), "us");
  layers.Add("server.busy_ratio",
             attempted == 0 ? 0.0 : static_cast<double>(refused) / attempted,
             "ratio");
  layers.Add("sql.parse_ms_p50", Median(parse), "ms");
  layers.Add("sql.bind_ms_p50", Median(bind), "ms");
  layers.Add("optimizer.optimize_ms_p50", Median(optimize), "ms");
  layers.Add("optimizer.patch_rewrite_ratio",
             explained == 0 ? 0.0
                            : static_cast<double>(explained_patch) / explained,
             "ratio");
  for (int c : {kDistinct, kSort, kJoin, kPoint}) {
    layers.Add(std::string("exec.execute_ms_p50.") + kClsName[c],
               Median(execute[c]), "ms");
  }
  layers.Add("exec.execute_ms_p50.match", Median(match), "ms");
  layers.Add("engine.parallel_ratio",
             counter_reads == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(serial) / counter_reads,
             "ratio");
  layers.Add("engine.pool_queue_wait_us_p50", pool_queue_d.Percentile(0.5),
             "us");
  layers.Add("engine.commit_wait_ms_p95", Percentile(commit_wait, 0.95), "ms");
  layers.Add("engine.live_versions_max",
             static_cast<double>(live_versions_max), "count");
  for (int c : {kInsert, kUpdate, kDelete}) {
    layers.Add(std::string("patchindex.commit_ms_p50.") + kClsName[c],
               Median(commit[c]), "ms");
  }
  for (int c : {kInsert, kUpdate, kDelete}) {
    layers.Add(std::string("patchindex.maintenance_ms_p50.") + kClsName[c],
               Median(maintenance[c - kInsert]), "ms");
  }
  layers.Add("patchindex.discovery_s", Median(discoveries), "s");
  layers.Add("patchindex.exception_rate_end", ExceptionRate(end_state),
             "ratio");
  layers.Add("patchindex.exception_rate_drift",
             ExceptionRate(end_state) - ExceptionRate(start_state), "ratio");
  layers.Add("patchindex.bytes_per_row",
             index_rows == 0 ? 0.0
                             : static_cast<double>(index_bytes) / index_rows,
             "B");
  layers.Add("bitmap.utilization", utilization, "ratio");
  layers.Add("bitmap.shards", static_cast<double>(shards), "count");
  layers.Add("storage.wal_bytes_per_row",
             rows_changed == 0
                 ? 0.0
                 : static_cast<double>(wal_bytes) / rows_changed,
             "B");
  layers.Add("storage.fsync_us_p50", fsync_d.Percentile(0.5), "us");
  layers.Add("storage.checkpoint_ms_total",
             static_cast<double>(checkpoint_d.sum_us) / 1000.0, "ms");
  layers.Add("storage.checkpoints", static_cast<double>(checkpoint_d.count),
             "count");
  layers.Add("storage.resident_bytes_per_row",
             static_cast<double>(resident) / end_state.total_rows(), "B");
  layers.Add("trace.unattributed_ms_p50", Median(unattributed), "ms");
  layers.Add("trace.overhead_pct", (GeoMean(ratios) - 1.0) * 100.0, "%");

  PrintBreakdown(all);
  std::printf("per-layer:\n");
  for (const auto& [name, v] : layers.entries()) {
    std::printf("  %-36s %14.6f %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
  const std::string trace_path =
      opt.work_dir + "/trace-" + opt.workload + ".json";
  if (spans.WriteChromeJson(trace_path)) {
    std::printf("spans: %zu written to %s\n", spans.size(), trace_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), layers.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace pibench

int main(int argc, char** argv) {
  pibench::Options opt;
  if (!pibench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: pibench --workload read_patch|oltp_point|htap_batch "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  // A run must end well within three minutes; never hang the caller.
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(170));
    std::fprintf(stderr, "pibench: run exceeded 170 s, aborting\n");
    std::_Exit(3);
  }).detach();
  const int rc = pibench::Run(opt);
  std::fflush(stdout);
  return rc;
}
