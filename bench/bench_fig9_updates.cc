// Reproduces Figure 9: total runtime of inserting / modifying / deleting
// 1000 tuples at granularities 5..1000 tuples per update query, on the
// e=0.5 dataset, for NUC and NSC:
//   - w/o constraint: buffer + checkpoint only,
//   - materialization: recompute the view / re-sort after every query,
//   - PI_bitmap / PI_identifier: the §5 update handling.
// Scaled to a 100K-row base table (paper: 1B). Expected shape: the
// materialization is catastrophic at fine granularities; the PatchIndex
// adds little over the reference; identifier worse than bitmap.

#include <cstdio>
#include <functional>
#include <set>
#include <vector>

#include "baselines/materialized_view.h"
#include "baselines/sort_key.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

constexpr std::uint64_t kRows = 100'000;
constexpr int kTotalTuples = 1000;
const int kGranularities[] = {5, 10, 50, 100, 500, 1000};

enum class OpKind { kInsert, kModify, kDelete };
enum class Approach { kNone, kMaterialization, kPiBitmap, kPiIdentifier };

GeneratorConfig BaseConfig() {
  GeneratorConfig cfg;
  cfg.num_rows = kRows;
  cfg.exception_rate = 0.5;
  return cfg;
}

// Applies one update query of `count` tuples to `t` (buffering only).
void BufferOps(Table& t, OpKind op, int count, std::int64_t& next_key,
               Rng& rng) {
  switch (op) {
    case OpKind::kInsert:
      for (int i = 0; i < count; ++i) {
        const std::int64_t v = (i % 2 == 0)
                                   ? 3'000'000'000LL + next_key
                                   : static_cast<std::int64_t>(i % 100);
        t.BufferInsert(MakeGeneratorRow(next_key++, v));
      }
      break;
    case OpKind::kModify:
      for (int i = 0; i < count; ++i) {
        const RowId r = rng.Uniform(0, t.num_rows() - 1);
        (void)t.BufferModify(
            r, 1, Value(static_cast<std::int64_t>(rng.Uniform(0, kRows))));
      }
      break;
    case OpKind::kDelete: {
      std::set<RowId> rows;
      while (rows.size() < static_cast<std::size_t>(count)) {
        rows.insert(rng.Uniform(0, t.num_rows() - 1));
      }
      for (RowId r : rows) (void)t.BufferDelete(r);
      break;
    }
  }
}

double RunCell(bool nuc, OpKind op, Approach approach, int granularity) {
  GeneratorConfig cfg = BaseConfig();
  Table t = nuc ? GenerateNucTable(cfg) : GenerateNscTable(cfg);

  PatchIndexManager mgr;
  std::unique_ptr<DistinctMaterializedView> mv;
  std::unique_ptr<SortKey> sk;
  if (approach == Approach::kPiBitmap ||
      approach == Approach::kPiIdentifier) {
    // The bitmap's bulk deletes shift shards in parallel on this pool.
    static ThreadPool delete_pool(DefaultThreadCount());
    PatchIndexOptions o;
    o.design = approach == Approach::kPiBitmap ? PatchSetDesign::kBitmap
                                               : PatchSetDesign::kIdentifier;
    o.bitmap_options.pool = &delete_pool;
    mgr.CreateIndex(t, 1,
                    nuc ? ConstraintKind::kNearlyUnique
                        : ConstraintKind::kNearlySorted,
                    o);
  } else if (approach == Approach::kMaterialization) {
    if (nuc) {
      mv = std::make_unique<DistinctMaterializedView>(t, 1);
    } else {
      sk = std::make_unique<SortKey>(&t, 1);
    }
  }

  Rng rng(77);
  std::int64_t next_key = static_cast<std::int64_t>(t.num_rows());
  return bench::TimeOnce([&] {
    int remaining = kTotalTuples;
    while (remaining > 0) {
      const int count = std::min(remaining, granularity);
      remaining -= count;
      BufferOps(t, op, count, next_key, rng);
      switch (approach) {
        case Approach::kNone:
          t.Checkpoint();
          break;
        case Approach::kMaterialization:
          if (nuc) {
            t.Checkpoint();
            mv->Refresh();
          } else {
            sk->MaintainAfterUpdate();
          }
          break;
        case Approach::kPiBitmap:
        case Approach::kPiIdentifier: {
          const Status st = mgr.CommitUpdateQuery(t);
          PIDX_CHECK_MSG(st.ok(), st.ToString().c_str());
          break;
        }
      }
    }
  });
}

const char* OpName(OpKind op) {
  switch (op) {
    case OpKind::kInsert:
      return "INSERT";
    case OpKind::kModify:
      return "MODIFY";
    case OpKind::kDelete:
      return "DELETE";
  }
  return "";
}

void Run(bool nuc) {
  for (OpKind op : {OpKind::kInsert, OpKind::kModify, OpKind::kDelete}) {
    std::printf("\n# Figure 9 (%s, %s): total runtime [s] for %d tuples, "
                "%llu-row base\n",
                nuc ? "NUC" : "NSC", OpName(op), kTotalTuples,
                static_cast<unsigned long long>(kRows));
    std::printf("%-14s %-12s %-16s %-12s %-14s\n", "granularity",
                "wo_constr", "materialization", "PI_bitmap",
                "PI_identifier");
    for (int g : kGranularities) {
      std::printf("%-14d", g);
      for (Approach a : {Approach::kNone, Approach::kMaterialization,
                         Approach::kPiBitmap, Approach::kPiIdentifier}) {
        std::printf(" %-13.4f", RunCell(nuc, op, a, g));
      }
      std::printf("\n");
    }
  }
}

}  // namespace
}  // namespace patchindex

int main() {
  patchindex::Run(/*nuc=*/true);
  patchindex::Run(/*nuc=*/false);
  return 0;
}
