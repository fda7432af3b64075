#include "obs/profile.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "optimizer/explain.h"
#include "optimizer/plan.h"

namespace patchindex::obs {

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min(sizeof(buf) - 1, std::size_t(n)));
}

double NsToMs(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void Walk(const LogicalNode& node, const ExecProfile& profile, int depth,
          std::vector<OpProfile>* out) {
  OpProfile op;
  op.label = PlanNodeLabel(node);
  op.depth = depth;
  if (const NodeStats* s = profile.Find(&node)) {
    op.rows = s->rows.load(std::memory_order_relaxed);
    op.morsels = s->morsels.load(std::memory_order_relaxed);
    op.workers = s->workers.load(std::memory_order_relaxed);
    op.time_ms = NsToMs(s->time_ns.load(std::memory_order_relaxed));
    op.max_worker_ms = NsToMs(s->max_worker_ns.load(std::memory_order_relaxed));
    op.build_ms = NsToMs(s->build_ns.load(std::memory_order_relaxed));
    op.mem_bytes = s->mem_bytes.load(std::memory_order_relaxed);
  }
  if (node.pruning != nullptr) {
    op.kept_blocks = node.pruning->kept_blocks;
    op.total_blocks = node.pruning->total_blocks;
  }
  out->push_back(std::move(op));
  for (const auto& child : node.children) {
    Walk(*child, profile, depth + 1, out);
  }
}

}  // namespace

void ExecProfile::RegisterPlan(const LogicalNode& plan) {
  StatsFor(&plan);
  for (const auto& child : plan.children) RegisterPlan(*child);
}

NodeStats& ExecProfile::StatsFor(const LogicalNode* node) {
  std::unique_ptr<NodeStats>& slot = stats_[node];
  if (slot == nullptr) slot = std::make_unique<NodeStats>();
  return *slot;
}

NodeStats* ExecProfile::Find(const LogicalNode* node) const {
  const auto it = stats_.find(node);
  return it == stats_.end() ? nullptr : it->second.get();
}

void FillOpProfiles(const LogicalNode& plan, const ExecProfile& profile,
                    QueryProfile* out) {
  out->ops.clear();
  Walk(plan, profile, 0, &out->ops);
}

std::vector<std::string> QueryProfile::RenderLines() const {
  std::vector<std::string> lines;
  lines.reserve(ops.size() + 2);
  for (const OpProfile& op : ops) {
    std::string line(static_cast<std::size_t>(op.depth) * 2, ' ');
    line += op.label;
    Appendf(&line, "  [rows=%llu",
            static_cast<unsigned long long>(op.rows));
    if (op.morsels > 0) {
      Appendf(&line, ", morsels=%llu",
              static_cast<unsigned long long>(op.morsels));
    }
    if (op.kept_blocks < op.total_blocks) {
      Appendf(&line, ", blocks=%llu/%llu",
              static_cast<unsigned long long>(op.kept_blocks),
              static_cast<unsigned long long>(op.total_blocks));
    }
    Appendf(&line, ", workers=%llu, time=%.3fms",
            static_cast<unsigned long long>(op.workers), op.time_ms);
    if (op.workers > 1) Appendf(&line, ", max=%.3fms", op.max_worker_ms);
    if (op.build_ms > 0.0) Appendf(&line, ", build=%.3fms", op.build_ms);
    if (op.mem_bytes > 0) {
      Appendf(&line, ", mem=%llu",
              static_cast<unsigned long long>(op.mem_bytes));
    }
    line += "]";
    lines.push_back(std::move(line));
  }
  // Reads never wait or commit: their line omits the two DML phases.
  const bool dml = commit_wait_ms > 0.0 || commit_ms > 0.0;
  std::string phases = "phases:";
  for (const PhaseInfo& p : kPhases) {
    if (p.phase >= QueryPhase::kCommitWait && !dml) continue;
    Appendf(&phases, " %s=%.3fms", p.label, this->*p.ms);
  }
  Appendf(&phases, " total=%.3fms", total_ms);
  if (peak_mem_bytes > 0) {
    Appendf(&phases, " peak_mem=%llu",
            static_cast<unsigned long long>(peak_mem_bytes));
  }
  lines.push_back(std::move(phases));
  std::string mode = "execution: ";
  if (parallel) {
    Appendf(&mode, "parallel, workers=%zu", pool_workers);
    if (parallel_join) mode += ", parallel join";
    if (parallel_sort) mode += ", parallel sort";
  } else {
    mode += "serial";
  }
  lines.push_back(std::move(mode));
  return lines;
}

}  // namespace patchindex::obs
