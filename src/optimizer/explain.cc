#include "optimizer/explain.h"

#include <cstdio>

namespace patchindex {

namespace {

const char* ConstraintName(ConstraintKind kind) {
  switch (kind) {
    case ConstraintKind::kNearlyUnique:
      return "NUC";
    case ConstraintKind::kNearlySorted:
      return "NSC";
    case ConstraintKind::kNearlyConstant:
      return "NCC";
  }
  return "?";
}

void Render(const LogicalNode& node, int depth, std::string* out) {
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  out->append(PlanNodeLabel(node));
  out->push_back('\n');
  for (const auto& child : node.children) Render(*child, depth + 1, out);
}

}  // namespace

std::string PlanNodeLabel(const LogicalNode& node) {
  std::string label;
  char buf[160];
  buf[0] = '\0';
  switch (node.kind) {
    case LogicalNode::Kind::kScan:
      if (node.ptable != nullptr && node.ptable->num_partitions() > 1) {
        std::snprintf(buf, sizeof(buf),
                      "Scan(%zu cols, %llu rows, %zu partitions%s)",
                      node.columns.size(),
                      static_cast<unsigned long long>(ScanRows(node)),
                      node.ptable->num_partitions(),
                      node.scan_sorted_col >= 0 ? ", sorted" : "");
      } else {
        std::snprintf(buf, sizeof(buf), "Scan(%zu cols, %llu rows%s)",
                      node.columns.size(),
                      static_cast<unsigned long long>(ScanRows(node)),
                      node.scan_sorted_col >= 0 ? ", sorted" : "");
      }
      break;
    case LogicalNode::Kind::kSelect: {
      std::snprintf(buf, sizeof(buf), ", sel=%.2f)", node.selectivity);
      label.append("Select(");
      label.append(node.predicate != nullptr ? node.predicate->ToString()
                                             : "?");
      break;
    }
    case LogicalNode::Kind::kProject: {
      std::snprintf(buf, sizeof(buf), ")");
      label.append("Project(");
      for (std::size_t i = 0; i < node.exprs.size(); ++i) {
        if (i > 0) label.append(", ");
        label.append(node.exprs[i]->ToString());
      }
      break;
    }
    case LogicalNode::Kind::kJoin:
      std::snprintf(buf, sizeof(buf), "Join(keys %zu=%zu)%s", node.left_key,
                    node.right_key,
                    node.left_key_nuc != nullptr || node.right_key_nuc != nullptr
                        ? " [NUC key]"
                        : "");
      break;
    case LogicalNode::Kind::kDistinct:
      std::snprintf(buf, sizeof(buf), "Distinct(%zu cols)",
                    node.group_cols.size());
      break;
    case LogicalNode::Kind::kAggregate:
      std::snprintf(buf, sizeof(buf), "Aggregate(groups=%zu, aggs=%zu)",
                    node.group_cols.size(), node.aggs.size());
      break;
    case LogicalNode::Kind::kSort:
      if (node.limit > 0) {
        std::snprintf(buf, sizeof(buf), "Sort(%zu keys, limit=%zu)",
                      node.sort_keys.size(), node.limit);
      } else {
        std::snprintf(buf, sizeof(buf), "Sort(%zu keys)",
                      node.sort_keys.size());
      }
      break;
    case LogicalNode::Kind::kPatchDistinct:
      std::snprintf(buf, sizeof(buf), "PatchDistinct [%s e=%.2f%%]",
                    ConstraintName(node.pidx->constraint()),
                    node.pidx->exception_rate() * 100.0);
      break;
    case LogicalNode::Kind::kPatchSort:
      std::snprintf(buf, sizeof(buf), "PatchSort [%s e=%.2f%%]",
                    ConstraintName(node.pidx->constraint()),
                    node.pidx->exception_rate() * 100.0);
      break;
    case LogicalNode::Kind::kPatchJoin:
      std::snprintf(buf, sizeof(buf), "PatchJoin(keys %zu=%zu) [%s e=%.2f%%]",
                    node.left_key, node.right_key,
                    ConstraintName(node.pidx->constraint()),
                    node.pidx->exception_rate() * 100.0);
      break;
  }
  label.append(buf);
  return label;
}

std::string ExplainPlan(const LogicalPtr& plan) {
  std::string out;
  Render(*plan, 0, &out);
  return out;
}

}  // namespace patchindex
