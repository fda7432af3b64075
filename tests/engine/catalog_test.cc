#include "engine/catalog.h"

#include <gtest/gtest.h>

#include "patchindex/patch_index.h"

namespace patchindex {
namespace {

Schema KvSchema() {
  return Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
}

TEST(CatalogTest, CreateFindDrop) {
  Catalog catalog;
  auto created = catalog.CreateTable("t", KvSchema());
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(catalog.FindTable("t"), created.value());
  EXPECT_EQ(catalog.FindTable("missing"), nullptr);
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"t"}));

  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_EQ(catalog.FindTable("t"), nullptr);
  EXPECT_EQ(catalog.DropTable("t").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, DuplicateNameRejected) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", KvSchema()).ok());
  EXPECT_EQ(catalog.CreateTable("t", KvSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, AddTableRegistersPopulatedTable) {
  Catalog catalog;
  auto table = std::make_unique<Table>(KvSchema());
  table->AppendRow(Row{{Value(std::int64_t{1}), Value(std::int64_t{2})}});
  auto added = catalog.AddTable("loaded", std::move(table));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added.value()->num_rows(), 1u);
}

TEST(CatalogTest, RefOnlyForCatalogTables) {
  Catalog catalog;
  const Table* owned = catalog.CreateTable("t", KvSchema()).value();
  Catalog::TableRef ref = catalog.Ref(*owned);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.table, owned);
  EXPECT_EQ(catalog.Ref("t").lock, ref.lock);

  Table foreign(KvSchema());
  EXPECT_FALSE(catalog.Ref(foreign));
  EXPECT_FALSE(catalog.Ref("missing"));
}

TEST(CatalogTest, RefKeepsDroppedTableAlive) {
  Catalog catalog;
  auto table = std::make_unique<Table>(KvSchema());
  table->AppendRow(Row{{Value(std::int64_t{1}), Value(std::int64_t{2})}});
  const Table* owned = catalog.AddTable("t", std::move(table)).value();
  Catalog::TableRef ref = catalog.Ref(*owned);
  ASSERT_TRUE(catalog.DropTable("t").ok());
  // The handle still reaches valid table data after the drop.
  EXPECT_EQ(ref.table->num_rows(), 1u);
  EXPECT_EQ(catalog.FindTable("t"), nullptr);
}

TEST(CatalogTest, DropTableDropsItsIndexes) {
  Catalog catalog;
  auto loaded = std::make_unique<Table>(KvSchema());
  for (std::int64_t i = 0; i < 8; ++i) {
    loaded->AppendRow(Row{{Value(i), Value(i)}});
  }
  const Table* table = catalog.AddTable("t", std::move(loaded)).value();
  catalog.manager().CreateIndex(*table, 1, ConstraintKind::kNearlySorted);
  ASSERT_EQ(catalog.manager().num_indexes(), 1u);
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_EQ(catalog.manager().num_indexes(), 0u);
}

}  // namespace
}  // namespace patchindex
