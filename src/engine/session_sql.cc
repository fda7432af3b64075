// Session's SQL entry points: Sql / Prepare / Explain and
// PreparedStatement. The front end lives in src/sql/ (lexer -> parser ->
// binder); this file owns running a bound statement through the engine:
// SELECT plans go down the same OptimizePlan + morsel-executor path as
// hand-built LogicalNode plans, DML deltas are computed and applied under
// the table's exclusive lock via Session::ExecuteUpdateWith.

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "engine/read_pin.h"
#include "engine/system_tables.h"
#include "optimizer/explain.h"
#include "optimizer/scan_pruning.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace patchindex {

namespace {

/// Prefixes every line of `body` with two spaces (nesting a sub-plan
/// under a one-line header).
std::string Indent(const std::string& body) {
  std::string out;
  for (std::size_t i = 0; i < body.size();) {
    std::size_t nl = body.find('\n', i);
    if (nl == std::string::npos) nl = body.size();
    out += "  " + body.substr(i, nl - i) + "\n";
    i = nl + 1;
  }
  return out;
}

/// Truncates a materialized batch to its first `limit` rows (LIMIT
/// without ORDER BY — no order to cut on inside the plan).
void TruncateBatch(Batch* batch, std::size_t limit) {
  if (batch->num_rows() <= limit) return;
  Batch out;
  out.Reset(batch->types());
  out.AppendRows(*batch, 0, limit);
  *batch = std::move(out);
}

/// Evaluates a bound row-free expression (INSERT values: constants,
/// parameters, arithmetic) to a single Value.
Value EvalScalar(const Expr& expr) {
  Batch one;
  one.row_ids.push_back(0);
  ColumnVector v = expr.Eval(one);
  PIDX_CHECK(v.size() == 1);
  return v.GetValue(0);
}

/// The row-finding plan of a SQL UPDATE/DELETE: a scan of every schema
/// column plus the bound WHERE. Shared by execution (MatchingRows) and
/// EXPLAIN so the rendered plan is the executed one. The scan emits
/// table-global rowIDs (partition scans offset by their base), which is
/// exactly how ExecuteUpdate addresses delta rows.
LogicalPtr MatchingRowsPlan(const PartitionedTable& table,
                            const sql::BoundStatement& bound) {
  std::vector<std::size_t> cols;
  for (std::size_t c = 0; c < table.schema().num_fields(); ++c) {
    cols.push_back(c);
  }
  LogicalPtr plan = LScan(table, std::move(cols));
  if (bound.where != nullptr) {
    plan = LSelect(std::move(plan), bound.where, bound.where_selectivity);
  }
  return plan;
}

/// The rows of `table` matching `bound.where` (all of them when null),
/// materialized with every schema column — the row-finding phase of SQL
/// UPDATE/DELETE. Row order is the executor's (rowID order on one
/// worker). The caller holds the table's
/// exclusive lock, so the executor reads the committed head directly. No
/// patch rewrites; block pruning applies, so a key-range WHERE visits
/// only its blocks — a single-row match runs on one worker, inline.
Batch MatchingRows(Engine& engine, const PartitionedTable& table,
                   const sql::BoundStatement& bound) {
  LogicalPtr plan = MatchingRowsPlan(table, bound);
  AnnotateScanPruning(plan.get());
  ParallelExecOptions options;
  options.morsel_rows = engine.options().morsel_rows;
  options.memory = obs::CurrentQueryTracker();
  return ExecutePlan(*plan, engine.pool(), options);
}

/// Wraps `lines` as a result set: one STRING column named `column`, one
/// row per line — the shape of EXPLAIN / EXPLAIN ANALYZE output, which
/// flows through every result path (local, prepared, wire protocol)
/// unchanged.
QueryResult TextResult(const std::string& column,
                       const std::vector<std::string>& lines) {
  QueryResult out;
  out.column_names = {column};
  out.rows.Reset({ColumnType::kString});
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.rows.columns[0].AppendValue(Value(lines[i]));
    out.rows.row_ids.push_back(i);
  }
  return out;
}

/// Splits rendered explain text (newline-terminated lines) into rows.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < text.size();) {
    std::size_t nl = text.find('\n', i);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(i, nl - i));
    i = nl + 1;
  }
  return lines;
}

Status BindParams(const sql::BoundStatement& bound,
                  std::vector<Value> params) {
  if (params.size() != bound.param_slots->size()) {
    return Status::InvalidArgument(
        "statement has " + std::to_string(bound.param_slots->size()) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const ColumnType want = bound.param_types[i];
    if (params[i].type() == ColumnType::kInt64 &&
        want == ColumnType::kDouble) {
      params[i] = Value(static_cast<double>(params[i].AsInt64()));
    }
    if (params[i].type() != want) {
      return Status::InvalidArgument(
          "parameter ?" + std::to_string(i + 1) + " expects " +
          ColumnTypeName(want) + ", got " +
          ColumnTypeName(params[i].type()));
    }
    (*bound.param_slots)[i] = std::move(params[i]);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ExplainBound(Engine* engine,
                                 const sql::BoundStatement& bound);

struct PreparedStatement::Impl {
  Session session;
  sql::BoundStatement bound;
  std::string sql;
  /// Front-end spans measured once by Prepare (parse_ms/bind_ms set),
  /// the starting profile of every execution (a prepared statement
  /// parses/binds once; a one-shot Session::Sql pays them per call).
  obs::QueryProfile front;
};

Result<PreparedStatement> Session::Prepare(std::string_view sql) {
  obs::QueryProfile front;
  const obs::PhaseSinks sinks = engine_->PhaseSinksFor(&front);
  obs::PhaseSpan parse_span(sinks, obs::QueryPhase::kParse);
  Result<sql::Statement> parsed = sql::ParseStatement(sql);
  parse_span.Close();
  if (!parsed.ok()) return parsed.status();
  obs::PhaseSpan bind_span(sinks, obs::QueryPhase::kBind);
  Result<sql::BoundStatement> bound =
      sql::BindStatement(parsed.value(), engine_->catalog());
  bind_span.Close();
  if (!bound.ok()) return bound.status();
  return PreparedStatement(std::make_shared<PreparedStatement::Impl>(
      PreparedStatement::Impl{*this, std::move(bound).value(),
                              std::string(sql), std::move(front)}));
}

Result<QueryResult> Session::Sql(std::string_view sql,
                                 std::vector<Value> params) {
  Result<PreparedStatement> prepared = Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  return prepared.value().Execute(std::move(params));
}

std::size_t PreparedStatement::num_params() const {
  return impl_->bound.param_slots->size();
}

const std::string& PreparedStatement::sql() const { return impl_->sql; }

Result<QueryResult> PreparedStatement::Execute(std::vector<Value> params) {
  const sql::BoundStatement& bound = impl_->bound;
  PIDX_RETURN_NOT_OK(BindParams(bound, std::move(params)));
  Session& session = impl_->session;

  // Plain EXPLAIN renders the would-be plan without executing; ANALYZE
  // (below) executes with operator profiling and renders measurements.
  if (bound.explain && !bound.analyze) {
    Result<std::string> text = ExplainBound(session.engine_, bound);
    if (!text.ok()) return text.status();
    return TextResult("plan", SplitLines(text.value()));
  }

  // One QueryProfile per execution, starting from the front-end spans:
  // phase spans always, per-operator measurements only for EXPLAIN
  // ANALYZE.
  auto profile = std::make_shared<obs::QueryProfile>(impl_->front);

  // Register with the flight recorder: the statement is visible in
  // pi_stats.active_queries from here until Complete retires it into
  // pi_stats.queries. Parse/bind already happened (possibly amortized by
  // Prepare), so the first observable phase is execute; DML advances to
  // commit inside ExecuteUpdateWithProfiled.
  Engine* engine = session.engine_;
  obs::FlightRecorder::Handle active = engine->recorder().Begin(
      session.session_id(), session.connection_id(), impl_->sql);
  obs::FlightRecorder::SetPhase(active, obs::QueryPhase::kExecute);

  // Per-statement memory tracker, parented under the engine's node: every
  // charge point the statement reaches (join builds, sort buffers,
  // aggregate tables, result materialization, DML deltas, WAL frames)
  // accounts against it through the thread-local install, and the flight
  // recorder samples its live balance for pi_stats.active_queries. An
  // over-budget charge throws; the engine layer converts it to
  // kResourceExhausted and the statement unwinds cleanly.
  auto query_mem = std::make_shared<obs::MemoryTracker>(
      "query#" + std::to_string(active->query_id), &engine->memory(),
      engine->options().query_memory_limit);
  obs::ScopedQueryTracker query_mem_scope(query_mem.get());
  obs::FlightRecorder::SetMemory(active, query_mem);

  if (engine->options().sql_exec_hook) {
    engine->options().sql_exec_hook(impl_->sql);
  }

  // Span capture when the trace sampler selects this statement. The
  // buffer's clock starts now; parse/bind are re-created as synthetic
  // leading spans from the prepared statement's measurements.
  const auto parse_us = static_cast<std::uint64_t>(profile->parse_ms * 1e3);
  const auto bind_us = static_cast<std::uint64_t>(profile->bind_ms * 1e3);
  std::shared_ptr<obs::TraceBuffer> trace;
  if (engine->SampleTrace()) {
    trace = std::make_shared<obs::TraceBuffer>(parse_us + bind_us);
    trace->Add(obs::PhaseOf(obs::QueryPhase::kParse).name, 0, 0, parse_us);
    trace->Add(obs::PhaseOf(obs::QueryPhase::kBind).name, 0, parse_us,
               bind_us);
  }
  obs::PhaseSinks sinks = engine->PhaseSinksFor(profile.get());
  sinks.trace = trace.get();
  sinks.active = active;

  WallTimer total_timer;
  std::int64_t commit_csn = -1;

  Result<QueryResult> executed = [&]() -> Result<QueryResult> {
  switch (bound.kind) {
    case sql::Statement::Kind::kSelect: {
      // The rewriter transforms plans in place, so each run optimizes a
      // fresh clone of the cached bound plan. pi_stats scans in the clone
      // are re-pointed at tables materialized from live engine state.
      LogicalPtr plan = ClonePlan(bound.plan);
      std::vector<std::unique_ptr<Table>> system_tables;
      PIDX_RETURN_NOT_OK(
          MaterializeSystemScans(plan.get(), engine, &system_tables));
      Result<QueryResult> result = session.ExecuteProfiled(
          std::move(plan), session.engine_->options().optimizer,
          /*profile_ops=*/bound.analyze, sinks);
      if (!result.ok()) return result.status();
      QueryResult out = std::move(result).value();
      out.column_names = bound.column_names;
      // A COUNT-only global aggregate over an empty input still returns
      // its one mandatory row (of zeros); see BoundStatement.
      if (bound.global_count_only && out.rows.num_rows() == 0) {
        if (out.rows.columns.empty()) {
          out.rows.Reset(std::vector<ColumnType>(bound.column_names.size(),
                                                 ColumnType::kInt64));
        }
        for (ColumnVector& c : out.rows.columns) {
          c.AppendValue(Value(std::int64_t{0}));
        }
        out.rows.row_ids.push_back(0);
      }
      if (bound.has_post_limit) TruncateBatch(&out.rows, bound.post_limit);
      return out;
    }
    case sql::Statement::Kind::kInsert: {
      std::vector<Row> rows;
      for (const std::vector<ExprPtr>& row : bound.insert_rows) {
        Row r;
        for (const ExprPtr& cell : row) r.cells.push_back(EvalScalar(*cell));
        rows.push_back(std::move(r));
      }
      QueryResult out;
      out.rows_affected = rows.size();
      PIDX_RETURN_NOT_OK(session.ExecuteUpdateWithProfiled(
          bound.table,
          [&rows](const PartitionedTable&) -> Result<UpdateQuery> {
            return UpdateQuery::Insert(std::move(rows));
          },
          sinks, &commit_csn));
      return out;
    }
    case sql::Statement::Kind::kUpdate: {
      QueryResult out;
      PIDX_RETURN_NOT_OK(session.ExecuteUpdateWithProfiled(
          bound.table,
          [&](const PartitionedTable& table) -> Result<UpdateQuery> {
            Batch matches = MatchingRows(*session.engine_, table, bound);
            std::vector<CellUpdate> cells;
            for (const auto& [col, expr] : bound.set_exprs) {
              ColumnVector values = expr->Eval(matches);
              for (std::size_t r = 0; r < matches.num_rows(); ++r) {
                cells.push_back(
                    {matches.row_ids[r], col, values.GetValue(r)});
              }
            }
            out.rows_affected = matches.num_rows();
            return UpdateQuery::Modify(std::move(cells));
          },
          sinks, &commit_csn));
      return out;
    }
    case sql::Statement::Kind::kDelete: {
      QueryResult out;
      PIDX_RETURN_NOT_OK(session.ExecuteUpdateWithProfiled(
          bound.table,
          [&](const PartitionedTable& table) -> Result<UpdateQuery> {
            Batch matches = MatchingRows(*session.engine_, table, bound);
            out.rows_affected = matches.num_rows();
            // Ascending rowIDs append to each partition's sorted delete
            // list instead of inserting into its middle.
            std::sort(matches.row_ids.begin(), matches.row_ids.end());
            return UpdateQuery::Delete(std::move(matches.row_ids));
          },
          sinks, &commit_csn));
      return out;
    }
    case sql::Statement::Kind::kCreateTable: {
      // No PARTITIONS clause -> the engine's session default.
      std::size_t partitions = bound.create_partitions;
      if (partitions == 0) {
        partitions =
            std::max<std::size_t>(1,
                                  session.engine_->options()
                                      .default_table_partitions);
      }
      PIDX_RETURN_NOT_OK(session.engine_->catalog()
                             .CreatePartitionedTable(
                                 bound.table, bound.create_schema, partitions)
                             .status());
      if (DurabilityManager* durability = session.engine_->durability()) {
        Status logged = durability->LogCreateTable(
            bound.table, bound.create_schema, partitions);
        if (!logged.ok()) {
          // Un-create: a table missing from the catalog log would not
          // survive a restart, so refuse to pretend it was created.
          (void)session.engine_->catalog().DropTable(bound.table);
          return logged;
        }
      }
      return QueryResult{};
    }
  }
  return Status::Internal("unhandled statement kind");
  }();

  const std::int64_t total_ns = total_timer.ElapsedNanos();
  // Total = this execution plus the statement's (possibly amortized)
  // parse/bind spans, so the breakdown sums to the total.
  profile->total_ms = profile->parse_ms + profile->bind_ms +
                      static_cast<double>(total_ns) / 1e6;
  // One peak read feeds both surfaces, so pi_stats.queries and EXPLAIN
  // ANALYZE's peak_mem= agree byte-for-byte.
  profile->peak_mem_bytes = query_mem->peak();

  // Retire the statement into the completed ring — errors included, so
  // pi_stats.queries shows failures with their status code and message.
  obs::QueryRecord rec;
  static_cast<obs::PhaseTimes&>(rec) = *profile;
  rec.peak_mem_bytes = profile->peak_mem_bytes;
  if (!executed.ok()) {
    rec.status = Status::CodeName(executed.status().code());
    rec.error = executed.status().message();
    engine->recorder().Complete(active, std::move(rec));
    return executed.status();
  }
  QueryResult out = std::move(executed).value();
  rec.rows_returned = out.rows.num_rows();
  rec.rows_affected = out.rows_affected;
  rec.parallel = out.parallel;
  rec.csn = commit_csn;
  engine->recorder().Complete(active, std::move(rec));

  if (trace != nullptr) {
    // One enclosing span covering the whole statement (synthetic
    // parse/bind included) so viewers get a root and the checker a
    // total to compare phase spans against.
    trace->Add("query", 0, 0,
               parse_us + bind_us +
                   static_cast<std::uint64_t>(total_ns / 1000));
    engine->StoreLastTrace(obs::RenderChromeTrace(trace->Events()));
    out.trace = trace;
  }

  const Engine::MetricSet& m = engine->m_;
  m.sql_statements->Add(1);
  m.query_latency_us->RecordNanos(total_ns);
  out.profile = profile;
  if (bound.analyze) {
    QueryResult analyzed = TextResult("plan", profile->RenderLines());
    analyzed.profile = profile;
    return analyzed;
  }
  return out;
}

/// The EXPLAIN rendering of a bound statement — shared by
/// Session::Explain and the SQL `EXPLAIN <stmt>` prefix so both produce
/// byte-identical plans.
Result<std::string> ExplainBound(Engine* engine,
                                 const sql::BoundStatement& bound) {
  switch (bound.kind) {
    case sql::Statement::Kind::kSelect: {
      // Pin the scanned tables like Execute does: the rewriter and the
      // row-count annotations read table state, so the plan is explained
      // against the same snapshot a real execution would scan.
      LogicalPtr plan = ClonePlan(bound.plan);
      PinnedReadSet pin(engine->catalog(), &plan);
      LogicalPtr optimized = OptimizePlan(std::move(plan), pin.indexes(),
                                          engine->options().optimizer);
      std::string out = ExplainPlan(optimized);
      if (bound.has_post_limit) {
        out = "Limit(" + std::to_string(bound.post_limit) + ")\n" +
              Indent(out);
      }
      return out;
    }
    case sql::Statement::Kind::kInsert:
      return "Insert(table='" + bound.table + "', rows=" +
             std::to_string(bound.insert_rows.size()) + ")\n";
    case sql::Statement::Kind::kUpdate:
    case sql::Statement::Kind::kDelete: {
      // Shared-lock the target: the rendered row-matching plan reads
      // table state (row counts), like the SELECT branch above.
      Catalog::TableRef ref = engine->catalog().Ref(bound.table);
      if (!ref) {
        return Status::NotFound("table '" + bound.table + "' was dropped");
      }
      std::shared_lock<std::shared_mutex> guard(*ref.lock);
      const PartitionedTable* table = ref.ptable;
      std::string head;
      if (bound.kind == sql::Statement::Kind::kUpdate) {
        head = "Update(table='" + bound.table + "', set=[";
        for (std::size_t i = 0; i < bound.set_exprs.size(); ++i) {
          if (i > 0) head += ", ";
          head += "#" + std::to_string(bound.set_exprs[i].first) + " := " +
                  bound.set_exprs[i].second->ToString();
        }
        head += "])\n";
      } else {
        head = "Delete(table='" + bound.table + "')\n";
      }
      return head + Indent(ExplainPlan(MatchingRowsPlan(*table, bound)));
    }
    case sql::Statement::Kind::kCreateTable:
      return "CreateTable(table='" + bound.table + "', cols=" +
             std::to_string(bound.create_schema.num_fields()) +
             ", partitions=" +
             (bound.create_partitions == 0
                  ? "default"
                  : std::to_string(bound.create_partitions)) +
             ")\n";
  }
  return Status::Internal("unhandled statement kind");
}

Result<std::string> Session::Explain(std::string_view sql) {
  Result<sql::Statement> parsed = sql::ParseStatement(sql);
  if (!parsed.ok()) return parsed.status();
  Result<sql::BoundStatement> bound =
      sql::BindStatement(parsed.value(), engine_->catalog());
  if (!bound.ok()) return bound.status();
  return ExplainBound(engine_, bound.value());
}

}  // namespace patchindex
