// The engine-side pisql meta commands, shared by the local shell and the
// network server (kMeta frames). The output formats here are golden —
// tools/pisql_smoke.expected diffs against them in CI, both through local
// pisql and through `pisql --connect` — so changes must update the
// expected transcript too.

#include "server/meta_commands.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "storage/csv.h"
#include "workload/generator.h"

namespace patchindex {

namespace {

/// printf-style append onto a std::string.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void Appendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (n > 0) {
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    out->append(buf.data(), static_cast<std::size_t>(n));
  }
  va_end(args);
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

std::string Trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::vector<std::string> StatementSplitter::Feed(const std::string& line) {
  pending_ += (pending_.empty() ? "" : "\n") + line;
  std::vector<std::string> out;
  std::size_t start = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const char c = pending_[i];
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) {
      const std::string stmt = pending_.substr(start, i + 1 - start);
      if (Trim(stmt) != ";") out.push_back(stmt);
      start = i + 1;
    }
  }
  pending_.erase(0, start);
  if (Trim(pending_).empty()) pending_.clear();
  return out;
}

namespace {

std::string MetaTables(Engine& engine) {
  std::string out;
  for (const std::string& name : engine.catalog().TableNames()) {
    const PartitionedTable* t = engine.catalog().FindPartitionedTable(name);
    // A concurrent DropTable may have removed the table between
    // TableNames() and the lookup; skip rather than crash.
    if (t == nullptr) continue;
    if (t->num_partitions() > 1) {
      Appendf(&out, "%s (%llu rows, %zu partitions)\n", name.c_str(),
              static_cast<unsigned long long>(t->num_rows()),
              t->num_partitions());
    } else {
      Appendf(&out, "%s (%llu rows)\n", name.c_str(),
              static_cast<unsigned long long>(t->num_rows()));
    }
  }
  return out;
}

std::string MetaSchema(Engine& engine, const std::string& table) {
  const PartitionedTable* t = engine.catalog().FindPartitionedTable(table);
  if (t == nullptr) {
    return "error: unknown table '" + table + "'\n";
  }
  std::string out;
  for (const Field& f : t->schema().fields()) {
    Appendf(&out, "%s %s\n", f.name.c_str(), ColumnTypeName(f.type));
  }
  return out;
}

std::string MetaLoad(Engine& engine, const std::vector<std::string>& words) {
  Result<Schema> schema = InferCsvSchema(words[1]);
  if (!schema.ok()) {
    return "error: " + schema.status().ToString() + "\n";
  }
  Result<std::unique_ptr<Table>> table = LoadCsvTable(words[1], schema.value());
  if (!table.ok()) {
    return "error: " + table.status().ToString() + "\n";
  }
  const auto rows = table.value()->num_rows();
  std::size_t parts = 1;
  if (words.size() == 4) {
    char* end = nullptr;
    parts = std::strtoull(words[3].c_str(), &end, 10);
    if (end == words[3].c_str() || *end != '\0' || parts == 0 ||
        parts > Catalog::kMaxPartitions) {
      std::string out;
      Appendf(&out, "error: partition count must be 1..%zu, got '%s'\n",
              Catalog::kMaxPartitions, words[3].c_str());
      return out;
    }
  }
  Status added = Status::OK();
  if (parts > 1) {
    // Redistribute the loaded rows over the partitions (least-loaded
    // routing keeps them balanced).
    auto pt = std::make_unique<PartitionedTable>(schema.value(), parts);
    const Table& src = *table.value();
    for (RowId r = 0; r < src.num_rows(); ++r) {
      Row row;
      for (std::size_t c = 0; c < schema.value().num_fields(); ++c) {
        row.cells.push_back(src.column(c).Get(r));
      }
      pt->AppendRow(row);
    }
    added =
        engine.catalog().AddPartitionedTable(words[2], std::move(pt)).status();
  } else {
    added =
        engine.catalog().AddTable(words[2], std::move(table).value()).status();
  }
  if (!added.ok()) {
    return "error: " + added.ToString() + "\n";
  }
  std::string out;
  if (parts > 1) {
    Appendf(&out, "loaded %llu rows into '%s' (%zu partitions)\n",
            static_cast<unsigned long long>(rows), words[2].c_str(), parts);
  } else {
    Appendf(&out, "loaded %llu rows into '%s'\n",
            static_cast<unsigned long long>(rows), words[2].c_str());
  }
  return out;
}

std::string MetaGen(Engine& engine, const std::vector<std::string>& words) {
  GeneratorConfig cfg;
  cfg.num_rows = std::strtoull(words[3].c_str(), nullptr, 10);
  if (words.size() == 5) {
    cfg.exception_rate = std::strtod(words[4].c_str(), nullptr);
  }
  Table table =
      words[1] == "nsc" ? GenerateNscTable(cfg) : GenerateNucTable(cfg);
  Result<const Table*> added = engine.catalog().AddTable(
      words[2], std::make_unique<Table>(std::move(table)));
  if (!added.ok()) {
    return "error: " + added.status().ToString() + "\n";
  }
  std::string out;
  Appendf(&out, "generated %s table '%s' (%llu rows, %.0f%% exceptions)\n",
          words[1] == "nsc" ? "NSC" : "NUC", words[2].c_str(),
          static_cast<unsigned long long>(cfg.num_rows),
          cfg.exception_rate * 100.0);
  return out;
}

std::string MetaIndex(Engine& engine, Session& session,
                      const std::vector<std::string>& words) {
  const PartitionedTable* t = engine.catalog().FindPartitionedTable(words[1]);
  if (t == nullptr) {
    return "error: unknown table '" + words[1] + "'\n";
  }
  const int col = t->schema().ColumnIndex(words[2]);
  if (col < 0) {
    return "error: unknown column '" + words[2] + "'\n";
  }
  ConstraintKind kind;
  if (words[3] == "nuc" || words[3] == "NUC") {
    kind = ConstraintKind::kNearlyUnique;
  } else if (words[3] == "nsc" || words[3] == "NSC") {
    kind = ConstraintKind::kNearlySorted;
  } else if (words[3] == "ncc" || words[3] == "NCC") {
    kind = ConstraintKind::kNearlyConstant;
  } else {
    return "error: constraint must be nuc, nsc or ncc\n";
  }
  Status st =
      session.CreatePatchIndex(words[1], static_cast<std::size_t>(col), kind);
  if (!st.ok()) {
    return "error: " + st.ToString() + "\n";
  }
  // Report the observed exception rate across the per-partition indexes
  // (one each; a single-partition table has exactly one).
  std::uint64_t patches = 0;
  std::uint64_t rows = 0;
  for (const PatchIndex* idx : engine.catalog().manager().IndexesOn(*t)) {
    if (idx->column() == static_cast<std::size_t>(col) &&
        idx->constraint() == kind) {
      patches += idx->NumPatches();
      rows += idx->NumRows();
    }
  }
  const char* name = words[3] == "ncc" || words[3] == "NCC"   ? "NCC"
                     : words[3] == "nsc" || words[3] == "NSC" ? "NSC"
                                                              : "NUC";
  std::string out;
  if (t->num_partitions() > 1) {
    Appendf(&out,
            "created %s index on %s.%s (%zu partitions, %.2f%% "
            "exceptions)\n",
            name, words[1].c_str(), words[2].c_str(), t->num_partitions(),
            rows == 0 ? 0.0
                      : static_cast<double>(patches) /
                            static_cast<double>(rows) * 100.0);
  } else {
    Appendf(&out, "created %s index on %s.%s (%.2f%% exceptions)\n", name,
            words[1].c_str(), words[2].c_str(),
            rows == 0 ? 0.0
                      : static_cast<double>(patches) /
                            static_cast<double>(rows) * 100.0);
  }
  return out;
}

std::string MetaExplain(Session& session, const std::string& line) {
  const std::string sql = Trim(line.substr(std::string(".explain").size()));
  Result<std::string> plan = session.Explain(sql);
  if (!plan.ok()) {
    return "error: " + plan.status().ToString() + "\n";
  }
  return plan.value();
}

std::string MetaCounters(Session& session) {
  const ExecPathCounters& c = session.path_counters();
  std::string out;
  Appendf(&out,
          "parallel_pipelines=%llu parallel_joins=%llu "
          "parallel_sorts=%llu serial_fallbacks=%llu\n",
          static_cast<unsigned long long>(c.parallel_pipelines.load()),
          static_cast<unsigned long long>(c.parallel_joins.load()),
          static_cast<unsigned long long>(c.parallel_sorts.load()),
          static_cast<unsigned long long>(c.serial_fallbacks.load()));
  return out;
}

/// The engine's metrics registry in one-line-per-metric text form —
/// counters, gauges, and histogram summaries (count/mean/percentiles).
std::string MetaStats(Engine& engine) { return engine.metrics().RenderText(); }

}  // namespace

std::string RunMetaCommand(Engine& engine, Session& session,
                           const std::string& line) {
  const std::vector<std::string> words = SplitWords(line);
  if (words.empty()) {
    return "error: unknown or malformed command '' (try .help)\n";
  }
  const std::string& cmd = words[0];
  if (cmd == ".tables") return MetaTables(engine);
  if (cmd == ".schema" && words.size() == 2) {
    return MetaSchema(engine, words[1]);
  }
  if (cmd == ".load" && (words.size() == 3 || words.size() == 4)) {
    return MetaLoad(engine, words);
  }
  if (cmd == ".gen" && (words.size() == 4 || words.size() == 5)) {
    return MetaGen(engine, words);
  }
  if (cmd == ".index" && words.size() == 4) {
    return MetaIndex(engine, session, words);
  }
  if (cmd == ".explain" && words.size() >= 2) {
    return MetaExplain(session, line);
  }
  if (cmd == ".counters") return MetaCounters(session);
  if (cmd == ".stats") return MetaStats(engine);
  return "error: unknown or malformed command '" + cmd + "' (try .help)\n";
}

}  // namespace patchindex
