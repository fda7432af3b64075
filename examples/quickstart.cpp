// Quickstart: define an approximate uniqueness constraint (PatchIndex) on
// a column with a few duplicates, run an accelerated DISTINCT query in
// plain SQL, then update the table — also in SQL — and watch the index
// maintain itself: no recomputation, no full table scan.

#include <cstdio>
#include <memory>

#include "engine/engine.h"
#include "patchindex/patch_index.h"

using namespace patchindex;

int main() {
  Engine engine;
  Session session = engine.CreateSession();

  // A table of user records whose email hashes are "nearly unique":
  // legitimate duplicates exist (shared mailboxes), so a UNIQUE
  // constraint cannot be declared — but 99% of the column is unique.
  auto loaded = std::make_unique<Table>(Schema(
      {{"user_id", ColumnType::kInt64}, {"email_hash", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 100'000; ++i) {
    // every 100th user shares a mailbox with the previous one
    const std::int64_t hash = (i % 100 == 99) ? 7'000'000 + i - 1
                                              : 7'000'000 + i;
    loaded->AppendRow(Row{{Value(i), Value(hash)}});
  }
  const Table* users =
      engine.catalog().AddTable("users", std::move(loaded)).value();

  // 1. Define the approximate constraint. Discovery materializes the
  //    exceptions ("patches") in a sharded bitmap.
  Status st = session.CreatePatchIndex("users", /*column=*/1,
                                       ConstraintKind::kNearlyUnique);
  if (!st.ok()) {
    std::printf("index creation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const PatchIndex* index =
      engine.catalog().manager().IndexesOn(*users).front();
  std::printf("created PatchIndex: %llu patches (%.2f%% exception rate)\n",
              static_cast<unsigned long long>(index->NumPatches()),
              index->exception_rate() * 100.0);

  // 2. Run a DISTINCT query — as SQL text. The optimizer splits the
  //    dataflow: tuples satisfying the constraint skip the aggregation
  //    entirely. Explain shows the rewrite firing.
  std::printf("%s",
              session.Explain("SELECT DISTINCT email_hash FROM users")
                  .value()
                  .c_str());
  Result<QueryResult> distinct =
      session.Sql("SELECT DISTINCT email_hash FROM users");
  std::printf("distinct email hashes: %zu\n",
              distinct.value().rows.num_rows());

  // 3. Update the table through SQL. The insert-handling query (a join of
  //    the delta against the table, pruned by dynamic range propagation)
  //    finds new collisions; constraints become "more approximate" over
  //    time instead of updates aborting.
  Result<QueryResult> insert = session.Sql(
      "INSERT INTO users VALUES (100000, 7000000)");  // collision!
  if (!insert.ok()) {
    std::printf("update failed: %s\n", insert.status().ToString().c_str());
    return 1;
  }
  std::printf("after insert: %llu patches (scanned %.1f%% of the table to "
              "find the collisions)\n",
              static_cast<unsigned long long>(index->NumPatches()),
              index->last_handled_scan_fraction() * 100.0);

  // 4. Queries stay exact — and `?` parameters reuse one bound plan.
  PreparedStatement count =
      session.Prepare("SELECT COUNT(*) AS n FROM users WHERE email_hash = ?")
          .value();
  for (std::int64_t hash : {7'000'000, 7'000'098}) {
    Result<QueryResult> r = count.Execute({Value(hash)});
    std::printf("users with hash %lld: %lld\n", static_cast<long long>(hash),
                static_cast<long long>(r.value().rows.columns[0].i64[0]));
  }
  Result<QueryResult> again =
      session.Sql("SELECT DISTINCT email_hash FROM users");
  std::printf("distinct email hashes after update: %zu\n",
              again.value().rows.num_rows());
  return 0;
}
