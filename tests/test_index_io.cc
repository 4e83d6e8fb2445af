#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>

#include "gtest/gtest.h"
#include "netclus/index_io.h"
#include "netclus/query.h"
#include "store/binary_io.h"
#include "store/varint.h"
#include "test_helpers.h"
#include "tops/site_set.h"

namespace netclus::index {
namespace {

struct Fixture {
  graph::RoadNetwork net;
  std::unique_ptr<traj::TrajectoryStore> store;
  tops::SiteSet sites;
  std::unique_ptr<MultiIndex> index;

  explicit Fixture(uint64_t seed = 71) {
    net = test::MakeGridNetwork(10, 10, 100.0);
    store = std::make_unique<traj::TrajectoryStore>(&net);
    test::FillRandomWalks(store.get(), 40, 4, 12, seed);
    sites = tops::SiteSet::AllNodes(net);
    MultiIndexConfig config;
    config.gamma = 0.75;
    config.tau_min_m = 300.0;
    config.tau_max_m = 2500.0;
    index = std::make_unique<MultiIndex>(
        MultiIndex::Build(*store, sites, config));
  }

  /// Parses an in-memory image against this corpus.
  bool Decode(const std::vector<uint8_t>& image, MultiIndex* out,
              std::string* error) const {
    return ReadIndex(store::ByteBlock::FromVector(image), net.num_nodes(),
                     store->total_count(), out, error, nullptr, nullptr);
  }
};

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void ExpectIndexesEquivalent(const MultiIndex& a, const MultiIndex& b) {
  ASSERT_EQ(a.num_instances(), b.num_instances());
  EXPECT_EQ(a.tau_min_m(), b.tau_min_m());
  EXPECT_EQ(a.tau_max_m(), b.tau_max_m());
  for (size_t p = 0; p < a.num_instances(); ++p) {
    const ClusterIndex& x = a.instance(p);
    const ClusterIndex& y = b.instance(p);
    ASSERT_EQ(x.num_clusters(), y.num_clusters()) << "instance " << p;
    ASSERT_EQ(x.num_nodes(), y.num_nodes());
    ASSERT_EQ(x.num_sequences(), y.num_sequences());
    EXPECT_EQ(x.radius_m(), y.radius_m());
    for (uint32_t g = 0; g < x.num_clusters(); ++g) {
      EXPECT_EQ(x.cluster(g).center, y.cluster(g).center);
      EXPECT_EQ(x.cluster(g).representative, y.cluster(g).representative);
      EXPECT_EQ(x.cluster(g).rep_rt_m, y.cluster(g).rep_rt_m);
      EXPECT_EQ(x.cluster(g).sites, y.cluster(g).sites);
      ASSERT_EQ(x.cluster(g).tl.size(), y.cluster(g).tl.size());
      auto yi = y.cluster(g).tl.begin();
      for (const TlEntry& e : x.cluster(g).tl) {
        EXPECT_EQ(e.traj, yi->traj);
        EXPECT_EQ(e.dr_m, yi->dr_m);
        ++yi;
      }
      ASSERT_EQ(x.cluster(g).cl.size(), y.cluster(g).cl.size());
      for (size_t i = 0; i < x.cluster(g).cl.size(); ++i) {
        EXPECT_EQ(x.cluster(g).cl[i].cluster, y.cluster(g).cl[i].cluster);
        EXPECT_EQ(x.cluster(g).cl[i].dr_m, y.cluster(g).cl[i].dr_m);
      }
    }
    for (graph::NodeId v = 0; v < x.num_nodes(); ++v) {
      EXPECT_EQ(x.cluster_of(v), y.cluster_of(v));
      EXPECT_EQ(x.node_rt_m(v), y.node_rt_m(v));
    }
    for (traj::TrajId t = 0; t < x.num_sequences(); ++t) {
      EXPECT_EQ(x.cluster_sequence(t), y.cluster_sequence(t));
    }
  }
}

// Bit-identical TopK answers from two indexes over the same corpus.
void ExpectSameTopK(const MultiIndex& a, const MultiIndex& b,
                    const Fixture& f) {
  for (const double tau : {400.0, 800.0, 1600.0}) {
    Engine::QuerySpec spec;
    spec.k = 4;
    spec.tau_m = tau;
    const QueryResult x = test::RunOnIndex(a, *f.store, f.sites, spec);
    const QueryResult y = test::RunOnIndex(b, *f.store, f.sites, spec);
    EXPECT_EQ(x.selection.sites, y.selection.sites) << "tau " << tau;
    EXPECT_EQ(x.selection.utility, y.selection.utility) << "tau " << tau;
    EXPECT_EQ(x.selection.marginal_gains, y.selection.marginal_gains);
    EXPECT_EQ(x.instance_used, y.instance_used);
  }
}

// --- crafted images ---------------------------------------------------------
//
// Byte offsets of the file format (docs/index_format.md). The header
// records the section-table offset at byte 24; each 32-byte table entry is
// {u32 kind, u32 pad, u64 offset, u64 bytes, u64 FNV-1a checksum}. Inside
// an instance section, num_nodes sits at byte 88 of the scalar header and
// the array descriptor table ({u64 offset, u64 bytes} per array) starts at
// byte 120.
constexpr size_t kTableOffsetAt = 24;
constexpr size_t kSectionEntryBytes = 32;
constexpr uint32_t kInstanceSection = 2;
constexpr size_t kNumNodesAt = 88;
constexpr size_t kArrayTableAt = 120;
constexpr size_t kClDataArray = 8;
constexpr size_t kTlDataArray = 10;

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

// Hands `patch` the bytes of instance section `instance`, then rewrites
// that section's checksum, so the edit gets past the checksum pass to the
// structural checks behind it.
void PatchInstanceSection(
    std::vector<uint8_t>* image, size_t instance,
    const std::function<void(uint8_t* section, uint64_t bytes)>& patch) {
  size_t seen = 0;
  for (size_t at = LoadU64(image->data() + kTableOffsetAt);
       at + kSectionEntryBytes <= image->size(); at += kSectionEntryBytes) {
    uint32_t kind = 0;
    std::memcpy(&kind, image->data() + at, sizeof(kind));
    if (kind != kInstanceSection || seen++ != instance) continue;
    uint8_t* section = image->data() + LoadU64(image->data() + at + 8);
    const uint64_t bytes = LoadU64(image->data() + at + 16);
    patch(section, bytes);
    StoreU64(image->data() + at + 24, store::Fnv1a64(section, bytes));
    return;
  }
  ADD_FAILURE() << "image has no instance section " << instance;
}

// One per-instance array inside an instance section.
uint8_t* InstanceArray(uint8_t* section, size_t array, uint64_t* bytes) {
  const uint8_t* descriptor = section + kArrayTableAt + 16 * array;
  *bytes = LoadU64(descriptor + 8);
  return section + LoadU64(descriptor);
}

TEST(IndexIo, RoundTripPreservesStructure) {
  Fixture f;
  MultiIndex loaded;
  std::string error;
  ASSERT_TRUE(f.Decode(EncodeIndex(*f.index, nullptr), &loaded, &error))
      << error;
  ASSERT_EQ(loaded.num_instances(), f.index->num_instances());
  EXPECT_DOUBLE_EQ(loaded.tau_min_m(), f.index->tau_min_m());
  EXPECT_DOUBLE_EQ(loaded.tau_max_m(), f.index->tau_max_m());
  for (size_t p = 0; p < loaded.num_instances(); ++p) {
    const ClusterIndex& a = f.index->instance(p);
    const ClusterIndex& b = loaded.instance(p);
    ASSERT_EQ(a.num_clusters(), b.num_clusters()) << "instance " << p;
    EXPECT_DOUBLE_EQ(a.radius_m(), b.radius_m());
    for (uint32_t g = 0; g < a.num_clusters(); ++g) {
      EXPECT_EQ(a.cluster(g).center, b.cluster(g).center);
      EXPECT_EQ(a.cluster(g).representative, b.cluster(g).representative);
      EXPECT_EQ(a.cluster(g).tl.size(), b.cluster(g).tl.size());
      EXPECT_EQ(a.cluster(g).cl.size(), b.cluster(g).cl.size());
    }
    for (graph::NodeId v = 0; v < f.net.num_nodes(); ++v) {
      EXPECT_EQ(a.cluster_of(v), b.cluster_of(v));
      EXPECT_FLOAT_EQ(a.node_rt_m(v), b.node_rt_m(v));
    }
  }
}

TEST(IndexIo, LoadedIndexAnswersQueriesIdentically) {
  Fixture f;
  MultiIndex loaded;
  std::string error;
  ASSERT_TRUE(f.Decode(EncodeIndex(*f.index, nullptr), &loaded, &error))
      << error;
  ExpectSameTopK(*f.index, loaded, f);
}

TEST(IndexIo, LoadedIndexAbsorbsFurtherUpdates) {
  Fixture f;
  MultiIndex loaded;
  std::string error;
  ASSERT_TRUE(f.Decode(EncodeIndex(*f.index, nullptr), &loaded, &error))
      << error;
  const traj::TrajId t = f.store->Add({0, 1, 2, 12, 13});
  loaded.AddTrajectory(*f.store, t);
  for (size_t p = 0; p < loaded.num_instances(); ++p) {
    EXPECT_FALSE(loaded.instance(p).cluster_sequence(t).empty());
  }
}

// Persistence must round-trip an index that has absorbed dynamic updates
// (Sec. 6) since its build — the serving deployment saves whatever the
// update pipeline has produced.
TEST(IndexIo, RoundTripAfterDynamicUpdatesPreservesTopK) {
  graph::RoadNetwork net = test::MakeGridNetwork(10, 10, 100.0);
  auto store = std::make_unique<traj::TrajectoryStore>(&net);
  test::FillRandomWalks(store.get(), 40, 4, 12, 71);
  // Sampled sites so a later AddSite introduces a genuinely new one.
  tops::SiteSet sites = tops::SiteSet::SampleNodes(net, 40, 5);
  MultiIndexConfig config;
  config.gamma = 0.75;
  config.tau_min_m = 300.0;
  config.tau_max_m = 2500.0;
  MultiIndex index = MultiIndex::Build(*store, sites, config);

  // Dynamic updates after the build: adds, removes, and a new site.
  for (int i = 0; i < 8; ++i) {
    const traj::TrajId t = store->Add({0, 1, 2, 12, 22, 23});
    index.AddTrajectory(*store, t);
    if (i % 3 == 0) {
      index.RemoveTrajectory(t);
      store->Remove(t);
    }
  }
  index.RemoveTrajectory(5);  // a build-time trajectory
  store->Remove(5);
  graph::NodeId fresh_node = 0;
  while (sites.SiteAtNode(fresh_node) != tops::kInvalidSite) ++fresh_node;
  const tops::SiteId fresh_site = sites.Add(fresh_node);
  index.AddSite(*store, sites, fresh_site);

  const std::vector<uint8_t> image = EncodeIndex(index, nullptr);
  MultiIndex loaded;
  std::string error;
  ASSERT_TRUE(ReadIndex(store::ByteBlock::FromVector(image), net.num_nodes(),
                        store->total_count(), &loaded, &error, nullptr,
                        nullptr))
      << error;
  // Lossless: the reloaded index (frozen arenas, no overlays) re-encodes
  // to exactly the bytes the updated original canonicalized into.
  EXPECT_EQ(EncodeIndex(loaded, nullptr), image);

  // Identical TopK on the updated original and the loaded copy.
  for (const double tau : {500.0, 900.0, 1500.0}) {
    Engine::QuerySpec spec;
    spec.k = 5;
    spec.tau_m = tau;
    const QueryResult a = test::RunOnIndex(index, *store, sites, spec);
    const QueryResult b = test::RunOnIndex(loaded, *store, sites, spec);
    EXPECT_EQ(a.selection.sites, b.selection.sites) << "tau " << tau;
    EXPECT_EQ(a.selection.utility, b.selection.utility) << "tau " << tau;
    EXPECT_EQ(a.selection.marginal_gains, b.selection.marginal_gains);
  }
}

// Saving an mmap-loaded index over its own file must not truncate the
// bytes its arenas alias: the save copies those arenas out of the mapping
// while it writes, and the loaded index must keep answering afterwards.
TEST(IndexIo, SaveOverMappedFileKeepsBothIndexesIntact) {
  Fixture f;
  const std::string path = "/tmp/netclus_index_save_over_mmap.idx";
  std::string error;
  ASSERT_TRUE(SaveIndex(*f.index, path, &error)) << error;
  MultiIndex mapped;
  ASSERT_TRUE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                        &mapped, &error, nullptr, nullptr,
                        IndexLoadMode::kMmap))
      << error;
  ASSERT_TRUE(SaveIndex(mapped, path, &error)) << error;

  MultiIndex reloaded;
  ASSERT_TRUE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                        &reloaded, &error))
      << error;
  ExpectIndexesEquivalent(*f.index, mapped);
  ExpectIndexesEquivalent(mapped, reloaded);
  ExpectSameTopK(*f.index, mapped, f);
  ExpectSameTopK(mapped, reloaded, f);
  std::remove(path.c_str());
}

TEST(IndexIo, RejectsCorpusMismatch) {
  Fixture f;
  const std::string path = "/tmp/netclus_index_mismatch.idx";
  std::string error;
  ASSERT_TRUE(SaveIndex(*f.index, path, &error)) << error;
  MultiIndex loaded;
  EXPECT_FALSE(LoadIndex(path, f.net.num_nodes() + 3, f.store->total_count(),
                         &loaded, &error));
  EXPECT_NE(error.find("nodes"), std::string::npos);
  std::remove(path.c_str());
}

// Anything without the format's magic fails up front with the magic
// error, in every load mode: an empty file, a text file in the retired v1
// format, and a file in the retired v2 binary format.
TEST(IndexIo, RejectsMalformedInput) {
  Fixture f;
  std::vector<uint8_t> v2 = EncodeIndex(*f.index, nullptr);
  std::memcpy(v2.data(), "NCIXBIN2", 8);
  const uint32_t version2 = 2;
  std::memcpy(v2.data() + 12, &version2, sizeof(version2));
  const std::string text = "netclus-index v1\nmeta 0.75 300 2500 1.0 3\n";
  const std::vector<std::vector<uint8_t>> files = {
      {}, std::vector<uint8_t>(text.begin(), text.end()), v2};

  const std::string path = "/tmp/netclus_index_malformed.idx";
  for (size_t i = 0; i < files.size(); ++i) {
    WriteFile(path, files[i]);
    for (const IndexLoadMode mode :
         {IndexLoadMode::kAuto, IndexLoadMode::kCopy, IndexLoadMode::kMmap}) {
      MultiIndex loaded;
      std::string error;
      EXPECT_FALSE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                             &loaded, &error, nullptr, nullptr, mode))
          << "file " << i;
      EXPECT_NE(error.find("magic"), std::string::npos)
          << "file " << i << ": " << error;
    }
  }
  std::remove(path.c_str());
}

// The file holds exactly the in-memory encoding, and the index loaded
// from it re-encodes byte for byte (the format is lossless) whichever way
// it was loaded.
TEST(IndexIo, FileRoundTrip) {
  Fixture f;
  const std::string path = "/tmp/netclus_index_io_test.idx";
  std::string error;
  ASSERT_TRUE(SaveIndex(*f.index, path, &error)) << error;
  const std::vector<uint8_t> image = EncodeIndex(*f.index, nullptr);
  EXPECT_EQ(ReadFile(path), image);
  for (const IndexLoadMode mode : {IndexLoadMode::kCopy, IndexLoadMode::kMmap}) {
    MultiIndex loaded;
    ASSERT_TRUE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                          &loaded, &error, nullptr, nullptr, mode))
        << error;
    EXPECT_EQ(loaded.num_instances(), f.index->num_instances());
    EXPECT_EQ(EncodeIndex(loaded, nullptr), image)
        << "load mode " << static_cast<int>(mode);
  }
  std::remove(path.c_str());
}

// --- structural validation behind valid checksums ---------------------------

// A corrupt length field must fail fast at the count caps instead of
// driving a huge allocation.
TEST(IndexIo, AbsurdCountsFail) {
  Fixture f;
  std::vector<uint8_t> image = EncodeIndex(*f.index, nullptr);
  PatchInstanceSection(&image, 0, [](uint8_t* section, uint64_t) {
    StoreU64(section + kNumNodesAt, 99999999999999ull);
  });
  MultiIndex loaded;
  std::string error;
  EXPECT_FALSE(f.Decode(image, &loaded, &error));
  EXPECT_NE(error.find("bad scalar header"), std::string::npos) << error;
}

// Ids planted out of range in a structurally-valid file must be rejected
// at load, not fault at query time: a CL entry referencing a nonexistent
// cluster is the query engine's unchecked `instance.cluster(nb.cluster)`.
TEST(IndexIo, OutOfRangeClClusterIdFails) {
  Fixture f;
  std::vector<uint8_t> image = EncodeIndex(*f.index, nullptr);
  PatchInstanceSection(&image, 0, [](uint8_t* section, uint64_t) {
    uint64_t bytes = 0;
    uint8_t* cl = InstanceArray(section, kClDataArray, &bytes);
    ASSERT_GE(bytes, sizeof(ClEntry)) << "no cl entries in instance 0";
    const uint32_t bogus = 999999;
    std::memcpy(cl, &bogus, sizeof(bogus));  // first entry's cluster id
  });
  MultiIndex loaded;
  std::string error;
  EXPECT_FALSE(f.Decode(image, &loaded, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

// Duplicate trajectory ids inside one TL list would corrupt TlList's
// live-entry accounting after a RemoveTrajectory (tombstones hide every
// occurrence but are counted once) — the loader must reject them.
TEST(IndexIo, DuplicateTlEntryFails) {
  Fixture f;
  std::vector<uint8_t> image = EncodeIndex(*f.index, nullptr);
  PatchInstanceSection(&image, 0, [](uint8_t* section, uint64_t) {
    uint64_t bytes = 0;
    uint8_t* data = InstanceArray(section, kTlDataArray, &bytes);
    // Walk the TL lists' block framing (varint count; per block two
    // skip-header varints, the payload length, the payload) to the first
    // payload whose leading varint — the id delta of the block's second
    // entry — is one byte. Zeroing it repeats the first entry's id.
    const uint8_t* end = data + bytes;
    const uint8_t* p = data;
    while (p != nullptr && p < end) {
      uint64_t count = 0;
      p = store::GetVarint64(p, end, &count);
      for (uint64_t left = count; p != nullptr && left > 0;
           left -= std::min<uint64_t>(left, store::kBlockEntries)) {
        uint64_t unused = 0, payload = 0;
        p = store::GetVarint64(p, end, &unused);
        if (p != nullptr) p = store::GetVarint64(p, end, &unused);
        if (p != nullptr) p = store::GetVarint64(p, end, &payload);
        if (p == nullptr) break;
        if (payload > 0 && *p < 0x80) {
          data[p - data] = 0;
          return;
        }
        p += payload;
      }
    }
    FAIL() << "no TL block with a one-byte id delta in instance 0";
  });
  MultiIndex loaded;
  std::string error;
  EXPECT_FALSE(f.Decode(image, &loaded, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

// --- the v3 file: magic, load modes, corruption ----------------------------

TEST(IndexIoV3, SavedFileCarriesV3Magic) {
  Fixture f;
  const std::string path = "/tmp/netclus_index_v3_magic.idx";
  std::string error;
  ASSERT_TRUE(SaveIndex(*f.index, path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  EXPECT_EQ(std::string(magic, 8), "NCIXBIN3");
  std::remove(path.c_str());
}

// copy load, mmap load, and mmap load under a page budget smaller than
// the index file must all answer bit-identically.
TEST(IndexIoV3, MmapCopyAndPageBudgetAnswerIdentically) {
  Fixture f;
  const std::string path = "/tmp/netclus_index_v3_mmap.idx";
  std::string error;
  ASSERT_TRUE(SaveIndex(*f.index, path, &error)) << error;

  MultiIndex copy_loaded, mmap_loaded, budget_loaded;
  ASSERT_TRUE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                        &copy_loaded, &error, nullptr, nullptr,
                        IndexLoadMode::kCopy))
      << error;
  ASSERT_TRUE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                        &mmap_loaded, &error, nullptr, nullptr,
                        IndexLoadMode::kMmap))
      << error;
  setenv("NETCLUS_PAGE_BUDGET", "64k", 1);
  ASSERT_TRUE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                        &budget_loaded, &error, nullptr, nullptr,
                        IndexLoadMode::kMmap))
      << error;
  unsetenv("NETCLUS_PAGE_BUDGET");
  ExpectIndexesEquivalent(copy_loaded, mmap_loaded);
  ExpectIndexesEquivalent(copy_loaded, budget_loaded);
  ExpectSameTopK(*f.index, copy_loaded, f);
  ExpectSameTopK(*f.index, mmap_loaded, f);
  ExpectSameTopK(*f.index, budget_loaded, f);
  std::remove(path.c_str());
}

// An index that absorbed dynamic updates saves its live state and
// reloads identically (the writer re-freezes overlays into blocks).
TEST(IndexIoV3, RoundTripAfterDynamicUpdates) {
  Fixture f;
  for (int i = 0; i < 6; ++i) {
    const traj::TrajId t = f.store->Add({0, 1, 2, 12, 22});
    f.index->AddTrajectory(*f.store, t);
    if (i % 2 == 0) {
      f.index->RemoveTrajectory(t);
      f.store->Remove(t);
    }
  }
  f.index->RemoveTrajectory(7);
  f.store->Remove(7);

  const std::string path = "/tmp/netclus_index_v3_updates.idx";
  std::string error;
  ASSERT_TRUE(SaveIndex(*f.index, path, &error)) << error;
  MultiIndex loaded;
  ASSERT_TRUE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                        &loaded, &error))
      << error;
  ExpectIndexesEquivalent(*f.index, loaded);
  std::remove(path.c_str());
}

TEST(IndexIoV3, TruncatedAndCorruptFilesFail) {
  Fixture f;
  std::vector<uint8_t> image = EncodeIndex(*f.index, nullptr);
  const std::string path = "/tmp/netclus_index_v3_corrupt.idx";
  for (const double fraction : {0.05, 0.3, 0.6, 0.9, 0.999}) {
    const size_t cut = static_cast<size_t>(image.size() * fraction);
    WriteFile(path, std::vector<uint8_t>(image.begin(), image.begin() + cut));
    MultiIndex loaded;
    std::string error;
    EXPECT_FALSE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                           &loaded, &error))
        << "cut at " << cut;
    EXPECT_FALSE(error.empty());
  }
  std::vector<uint8_t> flipped = image;
  flipped[flipped.size() / 2] ^= 0x40;
  WriteFile(path, flipped);
  MultiIndex loaded;
  std::string error;
  EXPECT_FALSE(LoadIndex(path, f.net.num_nodes(), f.store->total_count(),
                         &loaded, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  std::remove(path.c_str());
}

// A header whose version field disagrees with its magic is corrupt, not
// a future format: v3 magic + version 2 must be rejected up front.
TEST(IndexIoV3, MagicVersionMismatchFails) {
  Fixture f;
  std::vector<uint8_t> image = EncodeIndex(*f.index, nullptr);
  const uint32_t v2 = 2;
  std::memcpy(image.data() + 12, &v2, sizeof(v2));  // magic(8) + endian(4)
  MultiIndex loaded;
  std::string error;
  EXPECT_FALSE(f.Decode(image, &loaded, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

}  // namespace
}  // namespace netclus::index
