#include "workload/publicbi.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "patchindex/discovery.h"

namespace patchindex {

std::vector<PublicBiDataset> Figure1Datasets() {
  // Per-column match fractions read off the paper's Figure 1 histogram.
  std::vector<PublicBiDataset> out;

  // USCensus_1: >500 columns, 15 of them nearly sorted; nine match with
  // over 60% of their tuples.
  PublicBiDataset census;
  census.name = "USCensus_1";
  const double census_fracs[] = {0.12, 0.25, 0.33, 0.41, 0.48, 0.55,
                                 0.62, 0.68, 0.72, 0.78, 0.84, 0.88,
                                 0.93, 0.97, 1.00};
  int i = 0;
  for (double f : census_fracs) {
    census.columns.push_back({"nsc_col_" + std::to_string(i++),
                              ConstraintKind::kNearlySorted, f});
  }
  out.push_back(std::move(census));

  // IGlocations2_1: few columns, a relatively large share nearly unique,
  // many of them nearly perfectly.
  PublicBiDataset ig;
  ig.name = "IGlocations2_1";
  const double ig_fracs[] = {0.55, 0.91, 0.96, 0.99, 1.00};
  i = 0;
  for (double f : ig_fracs) {
    ig.columns.push_back({"nuc_col_" + std::to_string(i++),
                          ConstraintKind::kNearlyUnique, f});
  }
  out.push_back(std::move(ig));

  // IUBlibrary_1: similar shape, nearly perfectly unique columns.
  PublicBiDataset iub;
  iub.name = "IUBlibrary_1";
  const double iub_fracs[] = {0.35, 0.72, 0.93, 0.97, 0.99, 0.99, 1.00};
  i = 0;
  for (double f : iub_fracs) {
    iub.columns.push_back({"nuc_col_" + std::to_string(i++),
                           ConstraintKind::kNearlyUnique, f});
  }
  out.push_back(std::move(iub));
  return out;
}

Column SynthesizeColumn(const PublicBiColumnSpec& spec,
                        std::uint64_t num_rows, std::uint64_t seed) {
  Rng rng(seed);
  Column col(ColumnType::kInt64);
  const double e = 1.0 - spec.match_fraction;
  if (spec.constraint == ConstraintKind::kNearlySorted) {
    for (std::uint64_t i = 0; i < num_rows; ++i) {
      if (rng.NextBool(e)) {
        col.AppendInt64(static_cast<std::int64_t>(rng.Uniform(0, 2 * num_rows)));
      } else {
        col.AppendInt64(static_cast<std::int64_t>(i * 2));
      }
    }
  } else {
    // Duplicated values drawn from a small domain; unique values from a
    // disjoint high range.
    const std::uint64_t dup_domain =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(e * num_rows / 8));
    std::uint64_t dup_count = 0;
    for (std::uint64_t i = 0; i < num_rows; ++i) {
      if (rng.NextBool(e)) {
        col.AppendInt64(static_cast<std::int64_t>(dup_count++ % dup_domain));
      } else {
        col.AppendInt64(static_cast<std::int64_t>(1'000'000'000 + i));
      }
    }
  }
  return col;
}

double MeasureMatchFraction(const PublicBiColumnSpec& spec,
                            std::uint64_t num_rows, std::uint64_t seed) {
  Column col = SynthesizeColumn(spec, num_rows, seed);
  if (col.size() == 0) return 1.0;
  std::size_t patches = 0;
  if (spec.constraint == ConstraintKind::kNearlyUnique) {
    patches = DiscoverNucPatches(col).size();
  } else {
    patches = DiscoverNscPatches(col).patches.size();
  }
  return 1.0 - static_cast<double>(patches) / static_cast<double>(col.size());
}

std::vector<int> MatchHistogram(const PublicBiDataset& dataset,
                                std::uint64_t num_rows, std::uint64_t seed) {
  std::vector<int> buckets(10, 0);
  std::uint64_t s = seed;
  for (const auto& spec : dataset.columns) {
    const double f = MeasureMatchFraction(spec, num_rows, ++s);
    const int b = std::min(9, static_cast<int>(f * 10.0));
    ++buckets[b];
  }
  return buckets;
}

}  // namespace patchindex
