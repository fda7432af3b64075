// pisql — an interactive SQL shell over the PatchIndex engine.
//
// Usage: pisql [--connect host:port] [script.sql]
//
// Runs against an in-process engine by default; with --connect it speaks
// the wire protocol to a running piserver instead, through the same
// shell — every meta command below executes server-side there (.load
// resolves paths on the server), so the same script produces the same
// output either way.
//
// Reads from the script file when given, from stdin otherwise (a prompt
// is shown only on a terminal, so piped sessions produce clean,
// diffable output — CI smoke-tests rely on that). SQL statements end
// with `;` and may span lines; meta commands start with `.`:
//
//   .load <file.csv> <table> [parts]     load a CSV (schema inferred),
//                                        optionally into N partitions
//   .gen nuc|nsc <table> <rows> [rate]   generate a workload table
//   .index <table> <column> nuc|nsc|ncc  create a PatchIndex (one per
//                                        partition on partitioned tables)
//   .tables / .schema <table>       catalog introspection
//                                   (DDL: CREATE TABLE t (a INT64, ...)
//                                    PARTITIONS n)
//   .explain <sql>                  optimized plan (no execution)
//   .counters                       executor path counters
//   .timer on|off                   per-query wall time
//   .timing on|off                  per-statement phase breakdown
//                                   (parse/bind/optimize/execute/
//                                    lock/commit, engine-reported —
//                                    identical locally and remotely)
//   .trace <file>                   write the last statement's span
//                                   trace as Chrome trace-event JSON
//                                   (local sessions trace every
//                                   statement; over --connect, fetch
//                                   GET /trace from the server's
//                                   metrics port instead)
//   .help / .quit

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "client/client.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "obs/trace.h"
#include "server/meta_commands.h"

using namespace patchindex;

namespace {

void PrintBatch(const Batch& rows, const std::vector<std::string>& names) {
  std::string header;
  for (std::size_t c = 0; c < names.size(); ++c) {
    if (c > 0) header += " | ";
    header += names[c];
  }
  std::printf("%s\n", header.c_str());
  std::printf("%s\n", std::string(header.size(), '-').c_str());
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    std::string line;
    for (std::size_t c = 0; c < rows.columns.size(); ++c) {
      if (c > 0) line += " | ";
      line += rows.columns[c].GetValue(r).ToString();
    }
    std::printf("%s\n", line.c_str());
  }
}

/// Where the shell's statements run: an in-process engine or a remote
/// piserver. Both return the same QueryResult shape and the same meta
/// command text, so the shell cannot tell them apart.
class ShellBackend {
 public:
  virtual ~ShellBackend() = default;
  virtual Result<QueryResult> Sql(const std::string& sql) = 0;
  virtual Result<std::string> Meta(const std::string& line) = 0;
};

class LocalBackend : public ShellBackend {
 public:
  LocalBackend() : engine_(TracingOptions()), session_(engine_.CreateSession()) {}

  Result<QueryResult> Sql(const std::string& sql) override {
    return session_.Sql(sql);
  }
  Result<std::string> Meta(const std::string& line) override {
    return RunMetaCommand(engine_, session_, line);
  }

 private:
  /// An interactive shell traces every statement so `.trace` always has
  /// the latest one — the capture is a handful of mutexed appends per
  /// statement, noise next to printing the result.
  static EngineOptions TracingOptions() {
    EngineOptions options;
    options.trace_sampling = 1.0;
    return options;
  }

  Engine engine_;
  Session session_;
};

class RemoteBackend : public ShellBackend {
 public:
  explicit RemoteBackend(net::PiClient client) : client_(std::move(client)) {}

  Result<QueryResult> Sql(const std::string& sql) override {
    return client_.Sql(sql);
  }
  Result<std::string> Meta(const std::string& line) override {
    return client_.Meta(line);
  }

 private:
  net::PiClient client_;
};

class Shell {
 public:
  explicit Shell(std::unique_ptr<ShellBackend> backend)
      : backend_(std::move(backend)) {}

  /// Returns false when the session should end (.quit / EOF handling is
  /// the caller's).
  bool HandleLine(const std::string& line) {
    const std::string trimmed = Trim(line);
    if (!splitter_.pending() && trimmed.empty()) return true;
    if (!splitter_.pending() && trimmed.rfind("--", 0) == 0) return true;
    if (!splitter_.pending() && trimmed[0] == '.') return HandleMeta(trimmed);
    for (const std::string& stmt : splitter_.Feed(line)) RunSql(stmt);
    return true;
  }

  bool pending() const { return splitter_.pending(); }

 private:
  static std::string Trim(const std::string& s) {
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
  }

  void RunSql(const std::string& sql) {
    WallTimer timer;
    Result<QueryResult> result = backend_->Sql(sql);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    const QueryResult& qr = result.value();
    if (qr.trace != nullptr) last_trace_ = qr.trace;
    if (!qr.column_names.empty()) {
      PrintBatch(qr.rows, qr.column_names);
      std::printf("(%zu rows)\n", qr.rows.num_rows());
    } else {
      std::printf("(%llu rows affected)\n",
                  static_cast<unsigned long long>(qr.rows_affected));
    }
    if (timer_) std::printf("time: %.3f ms\n", timer.ElapsedSeconds() * 1e3);
    if (timing_) {
      // Engine-reported spans: the remote backend carries them in the
      // result header, so this line is format-identical either way. A
      // statement that did not execute (plain EXPLAIN) reports no
      // profile; fall back to the client-side wall clock.
      if (qr.profile != nullptr) {
        std::printf("time: %.3f ms (", qr.profile->total_ms);
        const char* sep = "";
        for (const obs::PhaseInfo& p : obs::kPhases) {
          std::printf("%s%s %.3f", sep, p.label, qr.profile.get()->*p.ms);
          sep = " ";
        }
        std::printf(")\n");
      } else {
        std::printf("time: %.3f ms\n", timer.ElapsedSeconds() * 1e3);
      }
    }
  }

  bool HandleMeta(const std::string& line) {
    // Purely client-side commands; everything else runs engine-side
    // (locally or on the server) through the backend.
    const std::string cmd = line.substr(0, line.find_first_of(" \t"));
    if (cmd == ".quit" || cmd == ".exit") return false;
    if (cmd == ".help") {
      std::printf(
          ".load <file.csv> <table> [parts]     load a CSV (schema "
          "inferred)\n"
          ".gen nuc|nsc <table> <rows> [rate]   generate a workload table\n"
          ".index <table> <column> nuc|nsc|ncc  create a PatchIndex\n"
          ".tables / .schema <table>            catalog introspection\n"
          ".explain <sql>                       optimized plan\n"
          ".counters                            executor path counters\n"
          ".timer on|off                        per-query wall time\n"
          ".timing on|off                       per-statement phase "
          "breakdown\n"
          ".trace <file>                        last statement's spans as "
          "Chrome trace JSON\n"
          ".quit                                leave\n"
          "SQL statements end with ';' and may span lines.\n");
      return true;
    }
    if (cmd == ".trace") {
      const std::size_t sp = line.find_first_of(" \t");
      const std::string path =
          sp == std::string::npos ? "" : Trim(line.substr(sp));
      if (path.empty()) {
        std::printf("usage: .trace <file>\n");
        return true;
      }
      if (last_trace_ == nullptr) {
        std::printf(
            "no trace captured yet (run a statement first; over "
            "--connect, fetch GET /trace from the server's metrics "
            "port)\n");
        return true;
      }
      std::ofstream out(path, std::ios::trunc);
      if (!out.is_open()) {
        std::printf("error: cannot open %s\n", path.c_str());
        return true;
      }
      out << obs::RenderChromeTrace(last_trace_->Events());
      std::printf("trace written to %s\n", path.c_str());
      return true;
    }
    if ((cmd == ".timer" || cmd == ".timing") &&
        line.find_first_of(" \t") != std::string::npos) {
      const std::string arg = Trim(line.substr(line.find_first_of(" \t")));
      if (arg.find_first_of(" \t") == std::string::npos && !arg.empty()) {
        if (cmd == ".timer") {
          timer_ = arg == "on";
          std::printf("timer %s\n", timer_ ? "on" : "off");
        } else {
          timing_ = arg == "on";
          std::printf("timing %s\n", timing_ ? "on" : "off");
        }
        return true;
      }
    }
    Result<std::string> out = backend_->Meta(line);
    if (!out.ok()) {
      std::printf("error: %s\n", out.status().ToString().c_str());
    } else {
      std::fputs(out.value().c_str(), stdout);
    }
    return true;
  }

  std::unique_ptr<ShellBackend> backend_;
  StatementSplitter splitter_;
  bool timer_ = false;
  bool timing_ = false;
  /// Span buffer of the most recent traced statement (local backend
  /// only — the wire protocol does not carry traces).
  std::shared_ptr<obs::TraceBuffer> last_trace_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  std::string script;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect = arg.substr(std::string("--connect=").size());
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: pisql [--connect host:port] [script.sql]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 1;
    } else {
      script = arg;
    }
  }

  std::unique_ptr<ShellBackend> backend;
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos || colon + 1 == connect.size()) {
      std::fprintf(stderr, "--connect expects host:port, got '%s'\n",
                   connect.c_str());
      return 1;
    }
    const std::string host = connect.substr(0, colon);
    char* end = nullptr;
    const unsigned long port = std::strtoul(connect.c_str() + colon + 1,
                                            &end, 10);
    if (*end != '\0' || port == 0 || port > 65535) {
      std::fprintf(stderr, "--connect: bad port in '%s'\n", connect.c_str());
      return 1;
    }
    net::PiClient client;
    Status st = client.Connect(host, static_cast<std::uint16_t>(port));
    if (!st.ok()) {
      std::fprintf(stderr, "cannot connect to %s: %s\n", connect.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    backend = std::make_unique<RemoteBackend>(std::move(client));
  } else {
    backend = std::make_unique<LocalBackend>();
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!script.empty()) {
    file.open(script);
    if (!file.is_open()) {
      std::fprintf(stderr, "cannot open script: %s\n", script.c_str());
      return 1;
    }
    in = &file;
  }
  const bool tty = script.empty() && isatty(fileno(stdin)) != 0;

  Shell shell(std::move(backend));
  if (tty) {
    std::printf("pisql — PatchIndex SQL shell (.help for commands)\n");
  }
  std::string line;
  while (true) {
    if (tty) {
      std::printf(shell.pending() ? "  ...> " : "pisql> ");
      std::fflush(stdout);
    }
    if (!std::getline(*in, line)) break;
    if (!shell.HandleLine(line)) break;
  }
  return 0;
}
