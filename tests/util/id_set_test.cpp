#include "util/id_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/ids.h"

namespace alvc::util {
namespace {

std::vector<TorId> members(const IdSet<TorId>& set) {
  return {set.members().begin(), set.members().end()};
}

TEST(IdSetTest, InsertListsEachIdOnceInInsertionOrder) {
  IdSet<TorId> set;
  EXPECT_FALSE(set.contains(TorId{5}));
  set.insert(TorId{5});
  set.insert(TorId{2});
  set.insert(TorId{5});
  EXPECT_EQ(members(set), (std::vector<TorId>{TorId{5}, TorId{2}}));
  EXPECT_TRUE(set.contains(TorId{2}));
  EXPECT_FALSE(set.contains(TorId{3}));
}

TEST(IdSetTest, EraseMovesTheLastMemberIntoTheGap) {
  IdSet<TorId> set;
  for (std::uint32_t i : {1u, 4u, 7u, 9u}) set.insert(TorId{i});
  set.erase(TorId{4});
  EXPECT_EQ(members(set), (std::vector<TorId>{TorId{1}, TorId{9}, TorId{7}}));
  set.erase(TorId{7});  // the last member
  set.erase(TorId{4});  // absent: no-op
  set.erase(TorId{100});  // beyond every slot: no-op
  EXPECT_EQ(members(set), (std::vector<TorId>{TorId{1}, TorId{9}}));
  EXPECT_FALSE(set.contains(TorId{4}));
  EXPECT_FALSE(set.contains(TorId{7}));
  set.insert(TorId{4});
  EXPECT_EQ(members(set), (std::vector<TorId>{TorId{1}, TorId{9}, TorId{4}}));
}

TEST(IdSetTest, ClearEmptiesAndForgetsEveryMember) {
  IdSet<TorId> set;
  for (std::uint32_t i : {3u, 0u, 8u}) set.insert(TorId{i});
  set.clear();
  EXPECT_EQ(members(set), std::vector<TorId>{});
  for (std::uint32_t i : {3u, 0u, 8u}) EXPECT_FALSE(set.contains(TorId{i}));
  set.insert(TorId{8});
  EXPECT_EQ(members(set), std::vector<TorId>{TorId{8}});
}

}  // namespace
}  // namespace alvc::util
