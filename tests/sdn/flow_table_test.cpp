#include "sdn/flow_table.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace alvc::sdn {
namespace {

TEST(FlowTableTest, InstallLookupRemove) {
  FlowTable table;
  EXPECT_TRUE(table.install(NfcId{1}, 5));
  EXPECT_EQ(table.size(), 1u);
  ASSERT_TRUE(table.lookup(NfcId{1}).has_value());
  EXPECT_EQ(*table.lookup(NfcId{1}), 5u);
  EXPECT_FALSE(table.lookup(NfcId{2}).has_value());
  EXPECT_TRUE(table.remove(NfcId{1}));
  EXPECT_FALSE(table.remove(NfcId{1}));
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTableTest, InstallOverwrites) {
  FlowTable table;
  EXPECT_TRUE(table.install(NfcId{1}, 5));
  EXPECT_FALSE(table.install(NfcId{1}, 9));  // overwrite, not new
  EXPECT_EQ(*table.lookup(NfcId{1}), 9u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, RulesExportInNfcOrder) {
  // Regression: rules_ is an unordered_map, so the export must sort —
  // alvc_analyze's unordered-escape pass flagged the raw iteration (the
  // state auditor diffs exported tables across runs).
  FlowTable table;
  for (const NfcId::value_type id : {7u, 2u, 9u, 1u, 5u, 3u}) {
    EXPECT_TRUE(table.install(NfcId{id}, id + 100));
  }
  const auto rules = table.rules();
  ASSERT_EQ(rules.size(), 6u);
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1].nfc, rules[i].nfc);
  }
  EXPECT_EQ(rules.front().nfc, NfcId{1});
  EXPECT_EQ(rules.back().nfc, NfcId{9});
}

TEST(FlowTableSetTest, TotalRules) {
  FlowTableSet set(3);
  EXPECT_EQ(set.switch_count(), 3u);
  set.table(0).install(NfcId{1}, 1);
  set.table(1).install(NfcId{1}, 2);
  set.table(1).install(NfcId{2}, 0);
  EXPECT_EQ(set.total_rules(), 3u);
  EXPECT_THROW((void)set.table(3), std::out_of_range);
}

}  // namespace
}  // namespace alvc::sdn
