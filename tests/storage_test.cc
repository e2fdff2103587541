#include <gtest/gtest.h>

#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/table.h"
#include "util/file_util.h"
#include "util/random.h"

namespace ssdb::storage {
namespace {

TEST(PageTest, ChecksumDetectsCorruption) {
  PageBuf page;
  page.fill(0);
  page[100] = 42;
  SealPage(page.data());
  EXPECT_TRUE(VerifyPage(page.data()));
  page[100] = 43;
  EXPECT_FALSE(VerifyPage(page.data()));
}

TEST(PageTest, FreshZeroPageVerifies) {
  PageBuf page;
  page.fill(0);
  EXPECT_TRUE(VerifyPage(page.data()));
}

TEST(PageTest, EndianHelpersRoundTrip) {
  uint8_t buf[8];
  StoreU16(buf, 0xbeef);
  EXPECT_EQ(LoadU16(buf), 0xbeef);
  EXPECT_EQ(buf[0], 0xef);
  EXPECT_EQ(buf[1], 0xbe);
  StoreU32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadU32(buf), 0xdeadbeefu);
  const uint8_t u32_bytes[4] = {0xef, 0xbe, 0xad, 0xde};
  EXPECT_EQ(std::memcmp(buf, u32_bytes, 4), 0);
  StoreU64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(LoadU64(buf), 0x0123456789abcdefULL);
  const uint8_t u64_bytes[8] = {0xef, 0xcd, 0xab, 0x89,
                                0x67, 0x45, 0x23, 0x01};
  EXPECT_EQ(std::memcmp(buf, u64_bytes, 8), 0);
  // Loads read the same layout at an unaligned address.
  uint8_t wide[9] = {0, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(LoadU64(wide + 1), 0x0807060504030201ULL);
  EXPECT_EQ(LoadU32(wide + 1), 0x04030201u);
  EXPECT_EQ(LoadU16(wide + 1), 0x0201);
}

// Every single-bit flip in the checksummed range [4, kPageSize) must fail
// verification.
void ExpectEveryBitFlipDetected(PageBuf page) {
  SealPage(page.data());
  ASSERT_TRUE(VerifyPage(page.data()));
  size_t missed = 0;
  for (size_t i = 4; i < kPageSize; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      page[i] ^= static_cast<uint8_t>(1u << bit);
      if (VerifyPage(page.data())) ++missed;
      page[i] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(missed, 0u);
  EXPECT_TRUE(VerifyPage(page.data()));
}

TEST(PageTest, ChecksumCatchesEveryBitFlipOnZeroBody) {
  PageBuf page;
  page.fill(0);
  SetPageType(page.data(), PageType::kHeap);
  ExpectEveryBitFlipDetected(page);
}

TEST(PageTest, ChecksumCatchesEveryBitFlipOnRandomBytes) {
  Random rng(14);
  PageBuf page;
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng.Next());
  ExpectEveryBitFlipDetected(page);
}

TEST(PageTest, ChecksumCatchesEveryBitFlipOnBTreeLeaf) {
  TempDir dir("page_leaf");
  auto pager = Pager::Open(dir.FilePath("db"), true);
  ASSERT_TRUE(pager.ok());
  PageId root;
  {
    BufferPool pool(pager->get(), 16);
    auto tree = BTree::Create(&pool);
    ASSERT_TRUE(tree.ok());
    for (uint64_t k = 1; k <= 100; ++k) {
      ASSERT_TRUE(tree->Insert(k * 7, k * 1000 + 3).ok());
    }
    root = tree->root();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  PageBuf leaf;
  ASSERT_TRUE((*pager)->ReadPage(root, &leaf).ok());
  ASSERT_EQ(GetPageType(leaf.data()), PageType::kBTreeLeaf);
  ASSERT_TRUE(VerifyPage(leaf.data()));
  ExpectEveryBitFlipDetected(leaf);
}

TEST(PageTest, ChecksumFieldCorruptionIsDetected) {
  PageBuf page;
  page.fill(0);
  SetPageType(page.data(), PageType::kHeap);
  page[2000] = 5;
  SealPage(page.data());
  for (size_t i = 0; i < 4; ++i) {
    PageBuf copy = page;
    copy[i] ^= 0x5a;
    EXPECT_FALSE(VerifyPage(copy.data())) << "checksum byte " << i;
  }
}

// Pins the v2 algorithm: a silent change would orphan every stored file.
TEST(PageTest, ChecksumKnownAnswer) {
  PageBuf page;
  for (size_t i = 0; i < kPageSize; ++i) {
    page[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  SetPageType(page.data(), PageType::kBTreeLeaf);
  EXPECT_EQ(PageChecksum(page.data()), 0x70778cddu);
  page.fill(0);
  SetPageType(page.data(), PageType::kMeta);
  EXPECT_EQ(PageChecksum(page.data()), 0xcc01ff05u);
}

TEST(PagerTest, CreateWriteReadReopen) {
  TempDir dir("pager_test");
  std::string path = dir.FilePath("db");
  {
    auto pager = Pager::Open(path, true);
    ASSERT_TRUE(pager.ok());
    EXPECT_EQ((*pager)->page_count(), 1u);  // meta
    auto id = (*pager)->AllocatePage();
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 1u);
    PageBuf buf;
    buf.fill(0);
    buf[500] = 77;
    SealPage(buf.data());
    ASSERT_TRUE((*pager)->WritePage(*id, buf).ok());
    ASSERT_TRUE((*pager)->SetMetaSlot(3, 0xabcd).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  {
    auto pager = Pager::Open(path, false);
    ASSERT_TRUE(pager.ok());
    EXPECT_EQ((*pager)->page_count(), 2u);
    EXPECT_EQ((*pager)->GetMetaSlot(3), 0xabcdu);
    PageBuf buf;
    ASSERT_TRUE((*pager)->ReadPage(1, &buf).ok());
    EXPECT_EQ(buf[500], 77);
    EXPECT_TRUE(VerifyPage(buf.data()));
  }
}

TEST(PagerTest, FreeListReusesPages) {
  TempDir dir("pager_free");
  auto pager = Pager::Open(dir.FilePath("db"), true);
  ASSERT_TRUE(pager.ok());
  auto a = (*pager)->AllocatePage();
  auto b = (*pager)->AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*pager)->FreePage(*a).ok());
  auto c = (*pager)->AllocatePage();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // reused
  EXPECT_FALSE((*pager)->FreePage(0).ok());  // meta is not freeable
}

TEST(PagerTest, RejectsForeignFiles) {
  TempDir dir("pager_bad");
  std::string path = dir.FilePath("not_a_db");
  ASSERT_TRUE(WriteStringToFile(path, std::string(8192, 'x')).ok());
  EXPECT_FALSE(Pager::Open(path, false).ok());
  // The rejected file is left as it was.
  EXPECT_EQ(*ReadFileToString(path), std::string(8192, 'x'));
}

// The format v1 meta page: same layout as v2, sealed with v1's byte-serial
// FNV-1a over [4, kPageSize).
std::string V1MetaFile() {
  PageBuf meta;
  meta.fill(0);
  SetPageType(meta.data(), PageType::kMeta);
  StoreU64(meta.data() + 8, 0x7373646231000000ULL);  // magic "ssdb1"
  StoreU32(meta.data() + 16, 1);                      // version
  StoreU32(meta.data() + 20, 2);                      // page count
  StoreU32(meta.data() + 24, kInvalidPageId);         // free list head
  StoreU64(meta.data() + 32, 1);                      // catalog root slot
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 4; i < kPageSize; ++i) {
    hash ^= meta[i];
    hash *= 0x100000001b3ULL;
  }
  uint32_t folded = static_cast<uint32_t>(hash ^ (hash >> 32));
  StoreU32(meta.data(), folded == 0 ? 1 : folded);
  return std::string(meta.begin(), meta.end()) + std::string(kPageSize, '\0');
}

TEST(PagerTest, RejectsFormatVersion1WithVersionError) {
  TempDir dir("pager_v1");
  std::string path = dir.FilePath("db");
  const std::string v1 = V1MetaFile();
  ASSERT_TRUE(WriteStringToFile(path, v1).ok());

  auto pager = Pager::Open(path, false);
  ASSERT_FALSE(pager.ok());
  EXPECT_TRUE(pager.status().IsCorruption()) << pager.status().ToString();
  EXPECT_NE(pager.status().message().find("version 1"), std::string::npos)
      << pager.status().ToString();

  auto store = DiskNodeStore::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
  EXPECT_NE(store.status().message().find("version 1"), std::string::npos)
      << store.status().ToString();

  EXPECT_EQ(*ReadFileToString(path), v1);
}

TEST(BufferPoolTest, FetchCachesPages) {
  TempDir dir("pool_test");
  auto pager = Pager::Open(dir.FilePath("db"), true);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 16);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  PageId id = page->id();
  page->data()[200] = 9;
  page->MarkDirty();
  *page = PageHandle();  // unpin
  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[200], 9);
  EXPECT_GE(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictsLruAndWritesBack) {
  TempDir dir("pool_evict");
  auto pager = Pager::Open(dir.FilePath("db"), true);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 32; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    page->data()[10] = static_cast<uint8_t>(i);
    page->MarkDirty();
    ids.push_back(page->id());
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  // Every page still readable with its contents.
  for (int i = 0; i < 32; ++i) {
    auto page = pool.Fetch(ids[i]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[10], static_cast<uint8_t>(i));
  }
}

TEST(BufferPoolTest, AllPinnedFailsGracefully) {
  TempDir dir("pool_pinned");
  auto pager = Pager::Open(dir.FilePath("db"), true);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 8);
  std::vector<PageHandle> pinned;
  for (int i = 0; i < 8; ++i) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    pinned.push_back(std::move(*page));
  }
  EXPECT_FALSE(pool.NewPage().ok());  // no evictable frame
  pinned.clear();
  EXPECT_TRUE(pool.NewPage().ok());
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest()
      : dir_("heap_test"),
        pager_(*Pager::Open(dir_.FilePath("db"), true)),
        pool_(pager_.get(), 64) {}

  TempDir dir_;
  std::unique_ptr<Pager> pager_;
  BufferPool pool_;
};

TEST_F(HeapFileTest, AppendGetRoundTrip) {
  auto heap = HeapFile::Create(&pool_);
  ASSERT_TRUE(heap.ok());
  auto rid = heap->Append("hello world");
  ASSERT_TRUE(rid.ok());
  auto value = heap->Get(*rid);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "hello world");
}

TEST_F(HeapFileTest, SpillsAcrossPagesAndScans) {
  auto heap = HeapFile::Create(&pool_);
  ASSERT_TRUE(heap.ok());
  Random rng(5);
  std::vector<std::pair<RecordId, std::string>> records;
  for (int i = 0; i < 500; ++i) {
    std::string record(100 + rng.Uniform(200), static_cast<char>('a' + i % 26));
    auto rid = heap->Append(record);
    ASSERT_TRUE(rid.ok());
    records.emplace_back(*rid, record);
  }
  auto pages = heap->PageCount();
  ASSERT_TRUE(pages.ok());
  EXPECT_GT(*pages, 10u);
  for (const auto& [rid, record] : records) {
    auto value = heap->Get(rid);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, record);
  }
  size_t scanned = 0;
  ASSERT_TRUE(heap->Scan([&](RecordId, std::string_view) {
                    ++scanned;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(scanned, records.size());
}

TEST_F(HeapFileTest, DeleteTombstones) {
  auto heap = HeapFile::Create(&pool_);
  ASSERT_TRUE(heap.ok());
  auto rid1 = heap->Append("one");
  auto rid2 = heap->Append("two");
  ASSERT_TRUE(rid1.ok() && rid2.ok());
  ASSERT_TRUE(heap->Delete(*rid1).ok());
  EXPECT_FALSE(heap->Get(*rid1).ok());
  EXPECT_TRUE(heap->Get(*rid2).ok());
  EXPECT_FALSE(heap->Delete(*rid1).ok());  // double delete
  size_t scanned = 0;
  ASSERT_TRUE(heap->Scan([&](RecordId, std::string_view) {
                    ++scanned;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(scanned, 1u);
}

TEST_F(HeapFileTest, RejectsOversizedRecords) {
  auto heap = HeapFile::Create(&pool_);
  ASSERT_TRUE(heap.ok());
  EXPECT_FALSE(heap->Append(std::string(kPageSize, 'x')).ok());
}

}  // namespace
}  // namespace ssdb::storage
