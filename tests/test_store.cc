// The compressed posting subsystem (src/store): varint/zigzag codecs,
// arena round-trips, lazy views, and the differential guarantees the
// index relies on — compressed traversal must yield exactly what the raw
// vector representation yields, entry for entry, and copies must share
// frozen arena blocks instead of duplicating them.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "gtest/gtest.h"
#include "netclus/cluster_index.h"
#include "netclus/jaccard.h"
#include "store/arena.h"
#include "store/binary_io.h"
#include "store/buffer_pool.h"
#include "store/mmap_file.h"
#include "store/rank_select.h"
#include "store/simd/bulk_varint.h"
#include "test_helpers.h"
#include "tops/coverage.h"
#include "tops/fm_greedy.h"
#include "tops/inc_greedy.h"

namespace netclus::store {
namespace {

TEST(Varint, RoundTripsEdgeValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 31) - 1,
                             1ull << 31,
                             (1ull << 32) - 1,
                             1ull << 63,
                             ~0ull};
  for (const uint64_t v : values) {
    std::vector<uint8_t> bytes;
    PutVarint64(bytes, v);
    uint64_t decoded = 0;
    const uint8_t* end =
        GetVarint64(bytes.data(), bytes.data() + bytes.size(), &decoded);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(end, bytes.data() + bytes.size());
    EXPECT_EQ(decoded, v);
  }
}

TEST(Varint, RejectsTruncatedInput) {
  std::vector<uint8_t> bytes;
  PutVarint64(bytes, ~0ull);
  uint64_t decoded = 0;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(GetVarint64(bytes.data(), bytes.data() + cut, &decoded), nullptr)
        << "cut " << cut;
  }
}

TEST(Varint, ZigZagRoundTripsSigns) {
  // Small magnitudes of either sign map to small codes; the extremes map
  // to the top of the 32-bit range and still round-trip.
  const std::pair<int32_t, uint32_t> cases[] = {
      {0, 0u},
      {-1, 1u},
      {1, 2u},
      {std::numeric_limits<int32_t>::max(), 0xfffffffeu},
      {std::numeric_limits<int32_t>::min(), 0xffffffffu}};
  for (const auto& [v, code] : cases) {
    EXPECT_EQ(ZigZag32(v), code) << v;
    EXPECT_EQ(UnZigZag32(ZigZag32(v)), static_cast<uint32_t>(v)) << v;
  }
}

TEST(PostingArena, U32ListsRoundTripFuzz) {
  for (size_t round = 0; round < test::FuzzRounds(12); ++round) {
    const uint64_t seed = test::FuzzSeed(0xa12e, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    std::vector<std::vector<uint32_t>> lists(rng.UniformInt(1, 40));
    for (auto& list : lists) {
      const size_t len = rng.UniformInt(static_cast<uint64_t>(30));
      for (size_t i = 0; i < len; ++i) {
        // Mixed magnitudes so deltas of both signs and widths occur.
        list.push_back(static_cast<uint32_t>(
            rng.UniformInt(rng.UniformInt(2) == 0 ? 100ull : ~0u)));
      }
    }
    PostingArenaBuilder builder;
    for (const auto& list : lists) builder.AddU32List(list);
    const PostingArena arena = builder.Finish();
    ASSERT_EQ(arena.num_lists(), lists.size());
    uint64_t entries = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      const PostingListView view = arena.U32List(i);
      EXPECT_EQ(view.Materialize(), lists[i]) << "list " << i;
      if (!lists[i].empty()) {
        EXPECT_EQ(view[lists[i].size() - 1], lists[i].back());
      }
      entries += lists[i].size();
    }
    EXPECT_EQ(arena.total_entries(), entries);
  }
}

TEST(PostingArena, PairListsRoundTripFuzz) {
  using Entry = netclus::tops::CoverEntry;
  for (size_t round = 0; round < test::FuzzRounds(12); ++round) {
    const uint64_t seed = test::FuzzSeed(0xb34f, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    std::vector<std::vector<Entry>> lists(rng.UniformInt(1, 30));
    for (auto& list : lists) {
      const size_t len = rng.UniformInt(static_cast<uint64_t>(25));
      for (size_t i = 0; i < len; ++i) {
        Entry e;
        e.id = static_cast<uint32_t>(rng.UniformInt(~0u));
        // Arbitrary float bit patterns must round-trip exactly, including
        // zero, denormals, infinities, and NaN payloads.
        const uint32_t bits = static_cast<uint32_t>(rng.UniformInt(~0u));
        std::memcpy(&e.dr_m, &bits, sizeof(bits));
        list.push_back(e);
      }
    }
    PostingArenaBuilder builder;
    for (const auto& list : lists) builder.AddPairList(list);
    const PostingArena arena = builder.Finish();
    for (size_t i = 0; i < lists.size(); ++i) {
      const auto view = arena.PairList<Entry>(i);
      ASSERT_EQ(view.size(), lists[i].size());
      size_t k = 0;
      for (const Entry& e : view) {
        EXPECT_EQ(e.id, lists[i][k].id);
        EXPECT_EQ(std::memcmp(&e.dr_m, &lists[i][k].dr_m, sizeof(float)), 0);
        ++k;
      }
    }
  }
}

// --- blocked codec + SIMD kernels ------------------------------------------

// EF-encoded offset table for hand-crafted blocked arenas.
ByteBlock EfOffsets(const std::vector<uint64_t>& offsets) {
  std::vector<uint8_t> bytes;
  EliasFanoView::Encode(offsets, &bytes);
  return ByteBlock::FromVector(std::move(bytes));
}

std::vector<uint32_t> RandomU32List(util::Rng& rng, size_t max_len) {
  std::vector<uint32_t> list(rng.UniformInt(static_cast<uint64_t>(max_len)));
  for (auto& v : list) {
    // Vary the magnitude so deltas span every varint width (1..5 bytes).
    const unsigned width = static_cast<unsigned>(rng.UniformInt(33));
    v = static_cast<uint32_t>(
        rng.UniformInt(width == 0 ? 1ull : (1ull << width)));
  }
  return list;
}

// Every kernel must decode the exact same varint grammar as the scalar
// reference: same values, same resume pointer, including partial decodes.
// Inputs sit in exact-size heap buffers so ASan turns any speculative
// read past `end` (the mmap-tail hazard) into a hard failure.
TEST(BulkVarint, KernelsMatchScalarFuzz) {
  std::vector<simd::Kernel> kernels;
  for (simd::Kernel k : {simd::Kernel::kSse4, simd::Kernel::kAvx2}) {
    if (simd::Supports(k)) kernels.push_back(k);
  }
  for (size_t round = 0; round < test::FuzzRounds(30); ++round) {
    const uint64_t seed = test::FuzzSeed(0x51d3, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    const size_t count = rng.UniformInt(600ull);
    std::vector<uint32_t> values(count);
    std::vector<uint8_t> enc;
    for (auto& v : values) {
      const unsigned width = static_cast<unsigned>(rng.UniformInt(33));
      v = static_cast<uint32_t>(
          rng.UniformInt(width == 0 ? 1ull : (1ull << width)));
      PutVarint64(enc, v);
    }
    std::vector<uint8_t> exact(enc);
    const uint8_t* begin = exact.data();
    const uint8_t* end = exact.data() + exact.size();

    std::vector<uint32_t> ref(count + 1, 0xdeadbeef);
    const uint8_t* ref_end =
        simd::BulkDecodeVarint32Scalar(begin, end, ref.data(), count);
    ASSERT_EQ(ref_end, end);
    for (size_t i = 0; i < count; ++i) ASSERT_EQ(ref[i], values[i]) << i;

    for (const simd::Kernel k : kernels) {
      SCOPED_TRACE(simd::KernelName(k));
      auto fn = k == simd::Kernel::kSse4 ? simd::BulkDecodeVarint32Sse4
                                         : simd::BulkDecodeVarint32Avx2;
      std::vector<uint32_t> out(count + 1, 0xabababab);
      EXPECT_EQ(fn(begin, end, out.data(), count), end);
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], values[i]) << "entry " << i;
      }
      // Partial decode: the window machinery must still stop exactly
      // after `prefix` varints even when more follow in bounds.
      const size_t prefix = count == 0 ? 0 : rng.UniformInt(count);
      std::vector<uint32_t> pa(prefix + 1, 1), pb(prefix + 1, 2);
      const uint8_t* ea =
          simd::BulkDecodeVarint32Scalar(begin, end, pa.data(), prefix);
      const uint8_t* eb = fn(begin, end, pb.data(), prefix);
      EXPECT_EQ(ea, eb);
      for (size_t i = 0; i < prefix; ++i) ASSERT_EQ(pa[i], pb[i]) << i;
    }
  }
}

TEST(BulkVarint, AllKernelsRejectTruncatedAndOverlongInput) {
  std::vector<uint8_t> good;
  PutVarint64(good, 0xffffffffull);  // 5 bytes, final byte 0x0f
  ASSERT_EQ(good.size(), 5u);

  std::vector<const uint8_t* (*)(const uint8_t*, const uint8_t*, uint32_t*,
                                 size_t)>
      kernels{simd::BulkDecodeVarint32Scalar};
  if (simd::Supports(simd::Kernel::kSse4)) {
    kernels.push_back(simd::BulkDecodeVarint32Sse4);
  }
  if (simd::Supports(simd::Kernel::kAvx2)) {
    kernels.push_back(simd::BulkDecodeVarint32Avx2);
  }

  uint32_t out[4] = {};
  for (size_t ki = 0; ki < kernels.size(); ++ki) {
    SCOPED_TRACE(ki);
    // Truncation at every cut point.
    for (size_t cut = 0; cut < good.size(); ++cut) {
      std::vector<uint8_t> t(good.begin(), good.begin() + cut);
      EXPECT_EQ(kernels[ki](t.data(), t.data() + t.size(), out, 1), nullptr)
          << "cut " << cut;
    }
    // A 5-byte varint whose final byte exceeds 0x0f encodes > 32 bits.
    std::vector<uint8_t> wide = {0x80, 0x80, 0x80, 0x80, 0x10};
    EXPECT_EQ(kernels[ki](wide.data(), wide.data() + wide.size(), out, 1),
              nullptr);
    // An overlong (6+ byte) encoding never fits the 32-bit grammar.
    std::vector<uint8_t> overlong = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
    EXPECT_EQ(
        kernels[ki](overlong.data(), overlong.data() + overlong.size(), out, 1),
        nullptr);
  }
}

// Every access path (iterator, ForEach, operator[]) must yield the source
// lists exactly, under every kernel, across multi-block lists.
TEST(PostingArena, BlockedListsMatchSourceFuzz) {
  std::vector<simd::Kernel> kernels{simd::Kernel::kScalar};
  for (simd::Kernel k : {simd::Kernel::kSse4, simd::Kernel::kAvx2}) {
    if (simd::Supports(k)) kernels.push_back(k);
  }
  for (size_t round = 0; round < test::FuzzRounds(8); ++round) {
    const uint64_t seed = test::FuzzSeed(0xb10c, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    std::vector<std::vector<uint32_t>> lists(rng.UniformInt(1, 10));
    for (auto& list : lists) list = RandomU32List(rng, 700);

    PostingArenaBuilder builder;
    uint64_t entries = 0;
    for (const auto& list : lists) {
      builder.AddU32List(list);
      entries += list.size();
    }
    const PostingArena blocked = builder.Finish();
    EXPECT_EQ(blocked.total_entries(), entries);

    for (const simd::Kernel k : kernels) {
      ASSERT_TRUE(simd::ForceKernel(k));
      SCOPED_TRACE(simd::KernelName(k));
      for (size_t i = 0; i < lists.size(); ++i) {
        const PostingListView bv = blocked.U32List(i);
        ASSERT_EQ(bv.size(), lists[i].size());
        EXPECT_EQ(bv.Materialize(), lists[i]) << "list " << i;
        std::vector<uint32_t> via_foreach;
        bv.ForEach([&](uint32_t v) { via_foreach.push_back(v); });
        EXPECT_EQ(via_foreach, lists[i]) << "list " << i;
        if (!lists[i].empty()) {
          // Random access hops the skip headers.
          for (int probe = 0; probe < 4; ++probe) {
            const size_t j = rng.UniformInt(lists[i].size());
            EXPECT_EQ(bv[j], lists[i][j]) << "list " << i << " [" << j << "]";
          }
        }
      }
    }
  }
  simd::ResetKernelFromEnv();
}

TEST(PostingArena, BlockedPairListsMatchSourceFuzz) {
  using Entry = netclus::tops::CoverEntry;
  std::vector<simd::Kernel> kernels{simd::Kernel::kScalar};
  for (simd::Kernel k : {simd::Kernel::kSse4, simd::Kernel::kAvx2}) {
    if (simd::Supports(k)) kernels.push_back(k);
  }
  for (size_t round = 0; round < test::FuzzRounds(6); ++round) {
    const uint64_t seed = test::FuzzSeed(0xbea7, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    std::vector<std::vector<Entry>> lists(rng.UniformInt(1, 8));
    for (auto& list : lists) {
      const size_t len = rng.UniformInt(400ull);
      for (size_t i = 0; i < len; ++i) {
        Entry e;
        e.id = static_cast<uint32_t>(rng.UniformInt(~0u));
        const uint32_t bits = static_cast<uint32_t>(rng.UniformInt(~0u));
        std::memcpy(&e.dr_m, &bits, sizeof(bits));
        list.push_back(e);
      }
    }
    PostingArenaBuilder builder;
    for (const auto& list : lists) builder.AddPairList(list);
    const PostingArena blocked = builder.Finish();
    for (const simd::Kernel k : kernels) {
      ASSERT_TRUE(simd::ForceKernel(k));
      SCOPED_TRACE(simd::KernelName(k));
      for (size_t i = 0; i < lists.size(); ++i) {
        const auto bv = blocked.PairList<Entry>(i);
        ASSERT_EQ(bv.size(), lists[i].size());
        size_t n = 0;
        bv.ForEach([&](const Entry& e) {
          ASSERT_LT(n, lists[i].size());
          EXPECT_EQ(e.id, lists[i][n].id);
          EXPECT_EQ(std::memcmp(&e.dr_m, &lists[i][n].dr_m, sizeof(float)), 0);
          ++n;
        });
        EXPECT_EQ(n, lists[i].size());
        size_t m = 0;
        for (const Entry& e : bv) {
          EXPECT_EQ(e.id, lists[i][m].id);
          ++m;
        }
        EXPECT_EQ(m, lists[i].size());
        if (!lists[i].empty()) {
          for (int probe = 0; probe < 4; ++probe) {
            const size_t j = rng.UniformInt(lists[i].size());
            const Entry e = bv[j];
            EXPECT_EQ(e.id, lists[i][j].id) << "list " << i << " [" << j << "]";
            EXPECT_EQ(std::memcmp(&e.dr_m, &lists[i][j].dr_m, sizeof(float)),
                      0);
          }
        }
      }
    }
  }
  simd::ResetKernelFromEnv();
}

// Malformed blocked images must be rejected at FromBlocks with a clean
// error — the lazy views assume validated streams and would otherwise
// walk off the mapping.
TEST(PostingArena, BlockedRejectsMalformedInput) {
  PostingArena reloaded;
  std::string error;

  // Every truncation of a valid multi-block list fails: depending on
  // where the cut lands the count turns implausible, a skip header or
  // payload truncates, or the block walk stops short of the list end.
  std::vector<uint32_t> big(300);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  PostingArenaBuilder builder;
  builder.AddU32List(big);
  const PostingArena arena = builder.Finish();
  const ByteBlock& data = arena.data_block();
  for (size_t cut = 0; cut < data.size(); cut += 7) {
    std::vector<uint8_t> prefix(data.data(), data.data() + cut);
    EXPECT_FALSE(PostingArena::FromBlocks(
        ByteBlock::FromVector(std::move(prefix)), EfOffsets({0, cut}), 1,
        ListKind::kU32, &reloaded, &error))
        << "cut " << cut;
  }

  // And the untruncated image round-trips.
  ASSERT_TRUE(PostingArena::FromBlocks(arena.data_block(),
                                       arena.offsets_block(), 1,
                                       ListKind::kU32, &reloaded, &error))
      << error;
  EXPECT_EQ(reloaded.U32List(0).Materialize(), big);

  // A list count that disagrees with the offset table.
  EXPECT_FALSE(PostingArena::FromBlocks(arena.data_block(),
                                        arena.offsets_block(), 2,
                                        ListKind::kU32, &reloaded, &error));
  EXPECT_NE(error.find("values, want"), std::string::npos) << error;
  // A data block one byte short: the offsets no longer fit inside it.
  std::vector<uint8_t> short_data(data.data(), data.data() + data.size() - 1);
  EXPECT_FALSE(PostingArena::FromBlocks(ByteBlock::FromVector(short_data),
                                        arena.offsets_block(), 1,
                                        ListKind::kU32, &reloaded, &error));
  EXPECT_NE(error.find("out of order/bounds"), std::string::npos) << error;
  // A u32 stream walked as pairs: the two-varint skip headers misread the
  // block framing.
  EXPECT_FALSE(PostingArena::FromBlocks(arena.data_block(),
                                        arena.offsets_block(), 1,
                                        ListKind::kPair, &reloaded, &error));

  // Trailing bytes after the final block.
  std::vector<uint8_t> padded(data.data(), data.data() + data.size());
  padded.push_back(0x00);
  EXPECT_FALSE(PostingArena::FromBlocks(
      ByteBlock::FromVector(padded), EfOffsets({0, padded.size()}), 1,
      ListKind::kU32, &reloaded, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  // A skip header whose payload length lies past the list end.
  std::vector<uint8_t> lying;
  PutVarint64(lying, 2);    // count
  lying.push_back(0x02);    // first-value delta (zigzag 1)
  PutVarint64(lying, 200);  // payload claims 200 bytes; only 1 follows
  lying.push_back(0x02);
  EXPECT_FALSE(PostingArena::FromBlocks(
      ByteBlock::FromVector(lying), EfOffsets({0, lying.size()}), 1,
      ListKind::kU32, &reloaded, &error));
  EXPECT_NE(error.find("lying payload"), std::string::npos) << error;

  // A payload varint exceeding 32 bits (final byte > 0x0f).
  std::vector<uint8_t> wide;
  PutVarint64(wide, 2);  // count
  wide.push_back(0x00);  // first-value delta
  PutVarint64(wide, 5);  // payload bytes
  const uint8_t over[5] = {0x80, 0x80, 0x80, 0x80, 0x10};
  wide.insert(wide.end(), over, over + sizeof(over));
  EXPECT_FALSE(PostingArena::FromBlocks(
      ByteBlock::FromVector(wide), EfOffsets({0, wide.size()}), 1,
      ListKind::kU32, &reloaded, &error));
  EXPECT_NE(error.find("malformed block payload"), std::string::npos) << error;

  // A crafted count near 2^63 must be rejected up front, not overflow the
  // block walk into accepting a list that claims 2^63 entries (which
  // would later drive iterators off the end).
  std::vector<uint8_t> huge_count;
  PutVarint64(huge_count, 1ull << 63);
  for (const ListKind kind : {ListKind::kU32, ListKind::kPair}) {
    EXPECT_FALSE(PostingArena::FromBlocks(
        ByteBlock::FromVector(huge_count), EfOffsets({0, huge_count.size()}),
        1, kind, &reloaded, &error))
        << static_cast<int>(kind);
    EXPECT_NE(error.find("implausible"), std::string::npos) << error;
  }
}

// --- Elias-Fano offsets ----------------------------------------------------

TEST(EliasFano, RoundTripFuzz) {
  for (size_t round = 0; round < test::FuzzRounds(20); ++round) {
    const uint64_t seed = test::FuzzSeed(0xef0f, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    util::Rng rng(seed);
    // Non-decreasing with runs of duplicates — empty lists in an offset
    // table produce exactly such plateaus.
    std::vector<uint64_t> values(rng.UniformInt(1, 500));
    uint64_t acc = 0;
    for (auto& v : values) {
      if (rng.UniformInt(4ull) != 0) {
        acc += rng.UniformInt(1ull << rng.UniformInt(20));
      }
      v = acc;
    }
    std::vector<uint8_t> bytes;
    EliasFanoView::Encode(values, &bytes);
    EliasFanoView view;
    std::string error;
    ASSERT_TRUE(
        EliasFanoView::Parse(bytes.data(), bytes.size(), &view, &error))
        << error;
    ASSERT_EQ(view.size(), values.size());
    EXPECT_EQ(view.universe(), values.back());
    EXPECT_EQ(view.serialized_bytes(), bytes.size());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(view.Get(i), values[i]) << i;
    }
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      uint64_t a = 0, b = 0;
      view.GetPair(i, &a, &b);
      ASSERT_EQ(a, values[i]) << i;
      ASSERT_EQ(b, values[i + 1]) << i;
    }
    // The point of EF offsets: strictly smaller than the plain u64 table
    // once lists are plentiful.
    if (values.size() >= 64) {
      EXPECT_LT(bytes.size(), values.size() * sizeof(uint64_t));
    }
  }
}

TEST(EliasFano, RejectsMalformedImages) {
  const std::vector<uint64_t> values{0, 3, 3, 10, 900, 4096};
  std::vector<uint8_t> bytes;
  EliasFanoView::Encode(values, &bytes);
  EliasFanoView view;
  std::string error;
  ASSERT_TRUE(EliasFanoView::Parse(bytes.data(), bytes.size(), &view, &error));

  // Every truncation fails (short header or bit-array size mismatch).
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(EliasFanoView::Parse(bytes.data(), cut, &view, &error))
        << "cut " << cut;
  }
  // A lying count: n bumped without resizing the arrays — caught by the
  // high-bit population check even when the byte sizes happen to match.
  std::vector<uint8_t> lying_n = bytes;
  const uint64_t n_plus = values.size() + 1;
  std::memcpy(lying_n.data(), &n_plus, sizeof(n_plus));
  EXPECT_FALSE(
      EliasFanoView::Parse(lying_n.data(), lying_n.size(), &view, &error));
  // An absurd low-bit width.
  std::vector<uint8_t> wide_l = bytes;
  const uint64_t l64 = 64;
  std::memcpy(wide_l.data() + 16, &l64, sizeof(l64));
  EXPECT_FALSE(
      EliasFanoView::Parse(wide_l.data(), wide_l.size(), &view, &error));
  EXPECT_NE(error.find("low-bit"), std::string::npos) << error;
}

// --- buffer pool -----------------------------------------------------------

TEST(BufferPool, ParsesHumanByteSizes) {
  uint64_t bytes = 0;
  EXPECT_TRUE(BufferPool::ParseByteSize("123", &bytes));
  EXPECT_EQ(bytes, 123u);
  EXPECT_TRUE(BufferPool::ParseByteSize("64k", &bytes));
  EXPECT_EQ(bytes, 64ull << 10);
  EXPECT_TRUE(BufferPool::ParseByteSize("16MiB", &bytes));
  EXPECT_EQ(bytes, 16ull << 20);
  EXPECT_TRUE(BufferPool::ParseByteSize("2g", &bytes));
  EXPECT_EQ(bytes, 2ull << 30);
  EXPECT_TRUE(BufferPool::ParseByteSize("1tb", &bytes));
  EXPECT_EQ(bytes, 1ull << 40);
  EXPECT_TRUE(BufferPool::ParseByteSize("512B", &bytes));
  EXPECT_EQ(bytes, 512u);
  EXPECT_FALSE(BufferPool::ParseByteSize("", &bytes));
  EXPECT_FALSE(BufferPool::ParseByteSize("lots", &bytes));
  EXPECT_FALSE(BufferPool::ParseByteSize("16Q", &bytes));
  EXPECT_FALSE(BufferPool::ParseByteSize("-5", &bytes));
}

TEST(BufferPool, BoundsResidencyAndSurvivesEviction) {
  // A 1 MiB file of deterministic bytes, mapped with a 2-frame budget.
  const std::string path = "/tmp/netclus_buffer_pool_test.bin";
  std::vector<uint8_t> content(1 << 20);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>((i * 131) ^ (i >> 8));
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
              content.size());
    std::fclose(f);
  }

  std::string error;
  auto file = MappedFile::Open(path, &error, 128 << 10);
  ASSERT_NE(file, nullptr) << error;
  BufferPool* pool = file->pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(BufferPool::Find(file->data() + 100), pool);
  EXPECT_EQ(BufferPool::Find(content.data()), nullptr);

  const uint64_t frame = pool->GetStats().frame_bytes;
  const uint64_t budget_frames = std::max<uint64_t>(1, (128 << 10) / frame);

  // Touch every frame: tracked residency must stay within the budget.
  for (size_t off = 0; off < file->size(); off += frame) {
    pool->Touch(file->data() + off, 1);
  }
  BufferPool::Stats stats = pool->GetStats();
  EXPECT_LE(stats.resident_bytes, budget_frames * frame);
  EXPECT_EQ(stats.faults, file->size() / frame);
  EXPECT_GE(stats.evictions, stats.faults - budget_frames);

  // Evicted pages re-fault with identical contents (read-only mapping).
  EXPECT_EQ(std::memcmp(file->data(), content.data(), content.size()), 0);

  // Pinned frames survive eviction pressure; the budget is a soft cap
  // (budget + pinned) so pinning can never deadlock the pool.
  pool->Pin(file->data(), 1);
  EXPECT_EQ(pool->GetStats().pinned_frames, 1u);
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t off = 0; off < file->size(); off += frame) {
      pool->Touch(file->data() + off, 1);
    }
  }
  stats = pool->GetStats();
  EXPECT_LE(stats.resident_bytes, (budget_frames + 1) * frame);

  pool->Unpin(file->data(), 1);
  EXPECT_EQ(pool->GetStats().pinned_frames, 0u);
  pool->DropAll();
  EXPECT_EQ(pool->GetStats().resident_bytes, 0u);
  // The data still reads back intact after a full drop.
  EXPECT_EQ(std::memcmp(file->data(), content.data(), content.size()), 0);

  file.reset();
  std::remove(path.c_str());
}

// An arena whose bytes live inside a pooled mapping reports list accesses
// to the pool (residency accounting) and decodes identically.
TEST(BufferPool, PooledArenaDecodesIdentically) {
  PostingArenaBuilder builder;
  std::vector<std::vector<uint32_t>> lists;
  util::Rng rng(0x9001);
  for (int i = 0; i < 20; ++i) {
    lists.push_back(RandomU32List(rng, 2000));
    builder.AddU32List(lists.back());
  }
  PostingArena arena = builder.Finish();

  // Serialize data + offsets into one file, mimicking the index image.
  const std::string path = "/tmp/netclus_pooled_arena_test.bin";
  const size_t data_size = arena.data_block().size();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(arena.data_block().data(), 1, data_size, f),
              data_size);
    ASSERT_EQ(std::fwrite(arena.offsets_block().data(), 1,
                          arena.offsets_block().size(), f),
              arena.offsets_block().size());
    std::fclose(f);
  }
  std::string error;
  auto file = MappedFile::Open(path, &error, 64 << 10);
  ASSERT_NE(file, nullptr) << error;
  ByteBlock image = MappedFile::Block(file);
  PostingArena pooled;
  ASSERT_TRUE(PostingArena::FromBlocks(
      image.Slice(0, data_size),
      image.Slice(data_size, image.size() - data_size), lists.size(),
      ListKind::kU32, &pooled, &error))
      << error;
  // The offset table is pinned at attach so extent lookups never re-fault.
  EXPECT_GE(file->pool()->GetStats().pinned_frames, 1u);

  const uint64_t touches_before = file->pool()->GetStats().touches;
  for (size_t i = 0; i < lists.size(); ++i) {
    EXPECT_EQ(pooled.U32List(i).Materialize(), lists[i]) << i;
  }
  EXPECT_GT(file->pool()->GetStats().touches, touches_before);

  pooled = PostingArena();
  image = ByteBlock();
  file.reset();
  std::remove(path.c_str());
}

TEST(ByteReader, SticksAtFailureInsteadOfOverreading) {
  ByteWriter w;
  w.U32(7);
  w.U64(9);
  ByteReader r(ByteBlock::FromVector(w.TakeBytes()));
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 9u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // past the end: zero + sticky failure
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace netclus::store

namespace netclus::tops {
namespace {

struct CoverageFixture {
  graph::RoadNetwork net;
  std::unique_ptr<traj::TrajectoryStore> store;
  SiteSet sites;

  explicit CoverageFixture(uint64_t seed) {
    net = test::MakeGridNetwork(8, 8, 100.0);
    store = std::make_unique<traj::TrajectoryStore>(&net);
    test::FillRandomWalks(store.get(), 30, 4, 10, seed);
    sites = SiteSet::SampleNodes(net, 24, seed ^ 0x5);
  }
};

// The compressed coverage index must be indistinguishable from the raw
// one: same sets through the views, same solver outputs bit for bit.
TEST(CoverageCompression, DifferentialAgainstRawFuzz) {
  for (size_t round = 0; round < test::FuzzRounds(6); ++round) {
    const uint64_t seed = test::FuzzSeed(0xc0ffee, round);
    SCOPED_TRACE(test::SeedTrace(seed));
    CoverageFixture f(seed);
    CoverageConfig config;
    config.tau_m = 700.0;
    const CoverageIndex raw = CoverageIndex::Build(*f.store, f.sites, config);
    config.compress_postings = true;
    const CoverageIndex packed =
        CoverageIndex::Build(*f.store, f.sites, config);
    ASSERT_TRUE(packed.compressed());
    ASSERT_FALSE(raw.compressed());
    ASSERT_EQ(raw.num_sites(), packed.num_sites());
    ASSERT_EQ(raw.num_trajectories(), packed.num_trajectories());

    for (SiteId s = 0; s < raw.num_sites(); ++s) {
      const auto a = raw.TC(s);
      const auto b = packed.TC(s);
      ASSERT_EQ(a.size(), b.size()) << "site " << s;
      auto bi = b.begin();
      for (const CoverEntry& e : a) {
        EXPECT_EQ(e.id, bi->id);
        EXPECT_EQ(e.dr_m, bi->dr_m);
        ++bi;
      }
    }
    for (traj::TrajId t = 0; t < raw.num_trajectories(); ++t) {
      const auto a = raw.SC(t);
      const auto b = packed.SC(t);
      ASSERT_EQ(a.size(), b.size()) << "traj " << t;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].dr_m, b[i].dr_m);
      }
    }

    // Compression reduces the resident footprint.
    EXPECT_LT(packed.MemoryBytes(), raw.MemoryBytes());

    // Solvers traverse the compressed postings and produce bit-identical
    // selections and utilities.
    const PreferenceFunction psi = PreferenceFunction::Binary();
    GreedyConfig gc;
    gc.k = 4;
    const Selection ga = IncGreedy(raw, psi, gc);
    const Selection gb = IncGreedy(packed, psi, gc);
    EXPECT_EQ(ga.sites, gb.sites);
    EXPECT_EQ(ga.utility, gb.utility);
    EXPECT_EQ(ga.marginal_gains, gb.marginal_gains);

    FmGreedyConfig fmc;
    fmc.k = 4;
    const FmGreedyResult fa = FmGreedy(raw, fmc);
    const FmGreedyResult fb = FmGreedy(packed, fmc);
    EXPECT_EQ(fa.selection.sites, fb.selection.sites);
    EXPECT_EQ(fa.estimated_utility, fb.estimated_utility);

    index::JaccardConfig jc;
    const index::JaccardResult ja = JaccardCluster(raw, jc);
    const index::JaccardResult jb = JaccardCluster(packed, jc);
    EXPECT_EQ(ja.num_clusters, jb.num_clusters);
    EXPECT_EQ(ja.site_cluster, jb.site_cluster);
  }
}

}  // namespace
}  // namespace netclus::tops

namespace netclus::index {
namespace {

struct InstanceFixture {
  graph::RoadNetwork net;
  std::unique_ptr<traj::TrajectoryStore> store;
  tops::SiteSet sites;

  explicit InstanceFixture(uint64_t seed = 77) {
    net = test::MakeGridNetwork(9, 9, 100.0);
    store = std::make_unique<traj::TrajectoryStore>(&net);
    test::FillRandomWalks(store.get(), 35, 4, 12, seed);
    sites = tops::SiteSet::AllNodes(net);
  }
};

// TL lists behind the compressed arena must behave exactly like the old
// vector lists across Sec. 6 updates: adds land, removes disappear,
// re-adds resurrect, sizes stay consistent.
TEST(TlOverlay, DynamicUpdatesMatchVectorSemantics) {
  InstanceFixture f;
  ClusterIndexConfig config;
  config.radius_m = 200.0;
  ClusterIndex index = ClusterIndex::Build(*f.store, f.sites, config);

  auto tl_trajs = [&](uint32_t g) {
    std::set<traj::TrajId> out;
    for (const TlEntry& e : index.cluster(g).tl) out.insert(e.traj);
    return out;
  };

  // Remove a frozen trajectory: it vanishes from every TL it was in.
  const traj::TrajId victim = 3;
  std::vector<uint32_t> crossed = index.cluster_sequence(victim);
  std::sort(crossed.begin(), crossed.end());
  crossed.erase(std::unique(crossed.begin(), crossed.end()), crossed.end());
  ASSERT_FALSE(crossed.empty());
  const uint32_t g0 = crossed[0];
  const size_t before = index.cluster(g0).tl.size();
  ASSERT_TRUE(tl_trajs(g0).count(victim));
  index.RemoveTrajectory(victim);
  EXPECT_EQ(index.cluster(g0).tl.size(), before - 1);
  EXPECT_FALSE(tl_trajs(g0).count(victim));
  EXPECT_TRUE(index.cluster_sequence(victim).empty());
  // Double remove: no-op.
  index.RemoveTrajectory(victim);
  EXPECT_EQ(index.cluster(g0).tl.size(), before - 1);

  // Re-add the same id: overlay entry becomes live again.
  index.AddTrajectory(*f.store, victim);
  EXPECT_EQ(index.cluster(g0).tl.size(), before);
  EXPECT_TRUE(tl_trajs(g0).count(victim));
  EXPECT_FALSE(index.cluster_sequence(victim).empty());

  // And removing it again tombstones the overlay copy too.
  index.RemoveTrajectory(victim);
  EXPECT_FALSE(tl_trajs(g0).count(victim));

  // A brand-new trajectory lands in extra and iterates.
  const traj::TrajId fresh = f.store->Add({0, 1, 2, 11, 20});
  index.AddTrajectory(*f.store, fresh);
  const uint32_t gf = index.cluster_of(0);
  EXPECT_TRUE(tl_trajs(gf).count(fresh));
}

// Copies of an instance (the serving layer's snapshot clones) must share
// the frozen arena bytes — copy-on-write, not deep copy.
TEST(ArenaSharing, CopiesShareFrozenBlocks) {
  InstanceFixture f;
  ClusterIndexConfig config;
  config.radius_m = 250.0;
  const ClusterIndex index = ClusterIndex::Build(*f.store, f.sites, config);
  ClusterIndex copy = index;  // what MultiIndex::Clone does per instance
  EXPECT_EQ(index.cc_arena_id(), copy.cc_arena_id());

  // Divergent updates stay private to the copy...
  copy.RemoveTrajectory(0);
  EXPECT_TRUE(copy.cluster_sequence(0).empty());
  EXPECT_FALSE(index.cluster_sequence(0).empty());
  // ...and do not unshare the frozen bytes.
  EXPECT_EQ(index.cc_arena_id(), copy.cc_arena_id());
}

}  // namespace
}  // namespace netclus::index
