// Ablation benchmarks for the design decisions DESIGN.md §5 calls out
// (beyond the shard-size sweep of Figure 6 and the bitmap-vs-identifier
// comparison embedded in Figures 7-9):
//   A. dynamic range propagation on/off in the NUC insert-handling query,
//   B. hash-join build-side choice (patches vs data side),
//   C. condense: utilization decay under deletes and the cost/benefit of
//      re-packing,
//   D. RLE compression of the patch bitmap across exception rates (§7).
// (The join rewrite's shared subtree "X" is executed once by construction
// — the executor materializes it for both branches — so there is no
// compute-X-twice variant to ablate.)

#include <cstdio>
#include <set>

#include "bench_util.h"
#include "bitmap/rle.h"
#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

void AblateDrp() {
  std::printf("# Ablation A: dynamic range propagation in NUC insert "
              "handling (200 x 5-row inserts, 200K-row base)\n");
  std::printf("%-8s %-14s %-18s\n", "DRP", "total[s]", "scan_fraction");
  for (bool drp : {true, false}) {
    GeneratorConfig cfg;
    cfg.num_rows = 200'000;
    cfg.exception_rate = 0.01;
    Table t = GenerateNucTable(cfg);
    PatchIndexOptions o;
    o.use_dynamic_range_propagation = drp;
    PatchIndexManager mgr;
    PatchIndex* idx =
        mgr.CreateIndex(t, 1, ConstraintKind::kNearlyUnique, o);
    std::int64_t key = static_cast<std::int64_t>(t.num_rows());
    const double total = bench::TimeOnce([&] {
      for (int q = 0; q < 200; ++q) {
        for (int i = 0; i < 5; ++i) {
          t.BufferInsert(MakeGeneratorRow(key, 7'000'000'000LL + key));
          ++key;
        }
        PIDX_CHECK(mgr.CommitUpdateQuery(t).ok());
      }
    });
    std::printf("%-8s %-14.4f %-18.4f\n", drp ? "on" : "off", total,
                idx->last_handled_scan_fraction());
  }
}

void AblateBuildSide() {
  std::printf("\n# Ablation B: hash join build side (1K-row delta joined "
              "with 500K-row table)\n");
  GeneratorConfig cfg;
  cfg.num_rows = 500'000;
  cfg.exception_rate = 0.0;
  Table big = GenerateNucTable(cfg);
  Table small = GenerateNucTable({1'000, 0.0, 100, 43});
  std::printf("%-16s %-12s\n", "build_side", "join[s]");
  for (bool build_small : {true, false}) {
    const double t = bench::TimeBest(3, [&] {
      auto mk_small = std::make_unique<ScanOperator>(
          small, std::vector<std::size_t>{1});
      auto mk_big = std::make_unique<ScanOperator>(
          big, std::vector<std::size_t>{1});
      OperatorPtr join;
      if (build_small) {
        join = std::make_unique<HashJoinOperator>(std::move(mk_small),
                                                  std::move(mk_big), 0, 0);
      } else {
        join = std::make_unique<HashJoinOperator>(std::move(mk_big),
                                                  std::move(mk_small), 0, 0);
      }
      bench::Drain(*join);
    });
    std::printf("%-16s %-12.4f\n", build_small ? "small(delta)" : "large",
                t);
  }
}

void AblateCondense() {
  std::printf("\n# Ablation C: condense after deleting 30%% of a 10M-bit "
              "sharded bitmap\n");
  constexpr std::uint64_t kBits = 10'000'000;
  Rng rng(9);
  std::set<std::uint64_t> kill_set;
  while (kill_set.size() < kBits * 3 / 10) {
    kill_set.insert(rng.Uniform(0, kBits - 1));
  }
  std::vector<std::uint64_t> kill(kill_set.begin(), kill_set.end());
  ShardedBitmap bm(kBits);
  for (std::uint64_t i = 0; i < kBits; i += 97) bm.Set(i);
  bm.BulkDelete(kill);
  std::printf("utilization after deletes: %.3f\n", bm.Utilization());

  auto scan_all = [&bm] {
    std::uint64_t acc = 0;
    bm.ForEachSetBit([&acc](std::uint64_t p) { acc += p; });
    return acc;
  };
  const double t_scan_before = bench::TimeBest(3, [&] { scan_all(); });
  const double t_condense = bench::TimeOnce([&] { bm.Condense(); });
  const double t_scan_after = bench::TimeBest(3, [&] { scan_all(); });
  std::printf("utilization after condense: %.3f\n", bm.Utilization());
  std::printf("full iteration before %.4fs, condense %.4fs, after %.4fs\n",
              t_scan_before, t_condense, t_scan_after);
}

void AblateRle() {
  std::printf("\n# Ablation D: RLE-compressed patch bitmap (1M rows)\n");
  std::printf("%-8s %-16s %-16s %-10s\n", "e", "bitmap[B]", "rle[B]",
              "ratio");
  for (double e : {0.001, 0.01, 0.1, 0.5}) {
    GeneratorConfig cfg;
    cfg.num_rows = 1'000'000;
    cfg.exception_rate = e;
    Table t = GenerateNscTable(cfg);
    auto idx = PatchIndex::Create(t, 1, ConstraintKind::kNearlySorted);
    const auto* bitmap_set =
        dynamic_cast<const BitmapPatchSet*>(&idx->patches());
    PIDX_CHECK(bitmap_set != nullptr);
    RleBitmap rle = RleEncode(bitmap_set->bitmap());
    const double ratio = static_cast<double>(idx->MemoryUsageBytes()) /
                         static_cast<double>(rle.CompressedBytes());
    std::printf("%-8.3f %-16llu %-16llu %-10.1f\n", e,
                static_cast<unsigned long long>(idx->MemoryUsageBytes()),
                static_cast<unsigned long long>(rle.CompressedBytes()),
                ratio);
  }
  std::printf("# RLE pays off especially at low exception rates (paper "
              "§7)\n");
}

}  // namespace
}  // namespace patchindex

int main() {
  patchindex::AblateDrp();
  patchindex::AblateBuildSide();
  patchindex::AblateCondense();
  patchindex::AblateRle();
  return 0;
}
