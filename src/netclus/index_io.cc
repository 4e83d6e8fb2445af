#include "netclus/index_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "graph/spf/contraction_hierarchy.h"
#include "netclus/cluster_index.h"
#include "store/binary_io.h"
#include "store/buffer_pool.h"
#include "store/mmap_file.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/strings.h"

namespace netclus::index {

namespace {

// Structural sanity cap on any serialized count/length. Real indexes stay
// far below it; a corrupt count above it fails fast instead of driving a
// multi-gigabyte allocation. (Array copies below also check a count
// against the bytes actually present before allocating, so truncation
// cannot allocate ahead of the file either.)
constexpr uint64_t kMaxListLength = 1ull << 31;
constexpr uint64_t kMaxInstances = 4096;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  // Structured log in addition to the out-param: callers historically
  // swallow the error string, and a corrupt index file should be visible
  // in the service log either way.
  NC_SLOG_WARNING("index_io_error").Kv("what", message);
  return false;
}

// Shared post-parse validation: cluster ids in range, assignments
// consistent, and every id stored in the per-cluster lists inside its id
// space — a well-checksummed but crafted file must not be able to plant
// ids that fault at query time. Run on every parsed instance.
bool ValidateInstanceStructure(const ClusterIndex& index, std::string* error) {
  for (graph::NodeId v = 0; v < index.num_nodes(); ++v) {
    if (index.cluster_of(v) >= index.num_clusters()) {
      return Fail(error, "cluster id out of range");
    }
  }
  // Stamp array for TL uniqueness: TlList::Remove and the tombstone-skip
  // iteration assume at most one entry per (cluster, trajectory) — a
  // crafted file with duplicates would corrupt the live-entry accounting
  // after a dynamic update.
  constexpr uint32_t kNoCluster = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> tl_seen(index.num_sequences(), kNoCluster);
  for (uint32_t g = 0; g < index.num_clusters(); ++g) {
    const Cluster& c = index.cluster(g);
    if (c.center >= index.num_nodes() || index.cluster_of(c.center) != g) {
      return Fail(error, "center/assignment mismatch");
    }
    if (c.representative != tops::kInvalidSite &&
        c.representative >= index.num_site_slots()) {
      return Fail(error, "representative out of range");
    }
    for (const tops::SiteId s : c.sites) {
      if (s >= index.num_site_slots()) {
        return Fail(error, "site id out of range");
      }
    }
    for (const ClEntry& e : c.cl) {
      if (e.cluster >= index.num_clusters()) {
        return Fail(error, "cl cluster id out of range");
      }
    }
    for (const TlEntry& e : c.tl) {
      if (e.traj >= index.num_sequences()) {
        return Fail(error, "tl trajectory id out of range");
      }
      if (tl_seen[e.traj] == g) {
        return Fail(error, "duplicate trajectory id in tl list");
      }
      tl_seen[e.traj] = g;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// ClusterIndex — instance blob
//
// Layout (offsets relative to the blob start, arrays 8-aligned):
//   scalars: config + stats + counts (see WriteBinary)
//   array descriptor table: kNumArrays x {u64 offset, u64 bytes}
//   arrays, in descriptor order
// ---------------------------------------------------------------------------

namespace {

// Descriptor order of the per-instance arrays.
enum InstanceArray : size_t {
  kArrNodeCluster = 0,  // u32[num_nodes]
  kArrNodeRt,           // f32[num_nodes]
  kArrCenters,          // u32[num_clusters]
  kArrRepresentatives,  // u32[num_clusters]
  kArrRepRt,            // f32[num_clusters]
  kArrSitesOffsets,     // u64[num_clusters + 1]
  kArrSitesData,        // u32[total sites]
  kArrClOffsets,        // u64[num_clusters + 1]
  kArrClData,           // ClEntry[total cl]
  kArrTlOffsets,        // Elias–Fano offsets (num_clusters + 1 values)
  kArrTlData,           // blocked varint arena bytes
  kArrCcOffsets,        // Elias–Fano offsets (num_seqs + 1 values)
  kArrCcData,           // blocked varint arena bytes
  kArrSiteRemoved,      // u8[ceil(num_site_flags / 8)]
  kNumArrays,
};

static_assert(sizeof(ClEntry) == 8 && std::is_trivially_copyable_v<ClEntry>);

// Copies a POD array out of a (possibly unaligned) byte block.
template <typename T>
bool CopyArray(const store::ByteBlock& block, size_t expected_count,
               std::vector<T>* out, std::string* error, const char* what) {
  if (block.size() != expected_count * sizeof(T)) {
    return Fail(error, util::StrFormat("array '%s': %zu bytes, want %zu", what,
                                       block.size(),
                                       expected_count * sizeof(T)));
  }
  out->resize(expected_count);
  if (expected_count > 0) {
    std::memcpy(out->data(), block.data(), block.size());
  }
  return true;
}

}  // namespace

void ClusterIndex::WriteBinary(store::ByteWriter& out) const {
  // Pristine instances (no Sec. 6 updates since freeze — the common
  // snapshot-shipping path) emit their frozen arena blocks verbatim.
  // Otherwise canonicalize: fold overlays/tombstones into fresh arenas, so
  // the file holds exactly the live postings. Encoding is deterministic,
  // so both paths produce identical bytes for identical live postings.
  const bool pristine =
      cc_overlay_.empty() && cc_removed_.empty() &&
      cc_count_ == cc_arena_.num_lists() &&
      std::all_of(clusters_.begin(), clusters_.end(),
                  [](const Cluster& c) { return !c.tl.has_overlay(); });
  store::PostingArena tl = tl_arena_;
  store::PostingArena cc = cc_arena_;
  if (!pristine) {
    store::PostingArenaBuilder tl_builder;
    for (const Cluster& c : clusters_) {
      tl_builder.AddPairList(c.tl.Materialize());
    }
    tl = tl_builder.Finish();
    store::PostingArenaBuilder cc_builder;
    for (traj::TrajId t = 0; t < cc_count_; ++t) {
      cc_builder.AddU32List(cluster_sequence(t));
    }
    cc = cc_builder.Finish();
  }

  out.F64(config_.radius_m);
  out.F64(config_.gamma);
  out.U32(static_cast<uint32_t>(config_.gdsp_strategy));
  out.U32(config_.fm_copies);
  out.U32(static_cast<uint32_t>(config_.representative_rule));
  out.U32(0);  // pad
  out.F64(stats_.gdsp_seconds);
  out.F64(stats_.build_seconds);
  out.F64(stats_.mean_dominating_set_size);
  out.F64(stats_.mean_tl_size);
  out.F64(stats_.mean_cl_size);
  out.U64(stats_.compressed_postings);
  out.U64(stats_.raw_postings);
  out.U64(node_cluster_.size());
  out.U64(clusters_.size());
  out.U64(cc_count_);
  out.U64(site_removed_.size());

  const size_t table_pos = out.Reserve(kNumArrays * 2 * sizeof(uint64_t));
  size_t next = 0;
  auto put_array = [&](const void* data, size_t bytes) {
    out.Align8();
    out.PatchU64(table_pos + next * 2 * sizeof(uint64_t), out.size());
    out.PatchU64(table_pos + (next * 2 + 1) * sizeof(uint64_t), bytes);
    out.Bytes(data, bytes);
    ++next;
  };

  put_array(node_cluster_.data(), node_cluster_.size() * sizeof(uint32_t));
  put_array(node_rt_.data(), node_rt_.size() * sizeof(float));

  std::vector<uint32_t> centers(clusters_.size()), reps(clusters_.size());
  std::vector<float> rep_rt(clusters_.size());
  std::vector<uint64_t> sites_offsets(clusters_.size() + 1, 0);
  std::vector<uint32_t> sites_data;
  std::vector<uint64_t> cl_offsets(clusters_.size() + 1, 0);
  std::vector<ClEntry> cl_data;
  for (size_t g = 0; g < clusters_.size(); ++g) {
    const Cluster& c = clusters_[g];
    centers[g] = c.center;
    reps[g] = c.representative;
    rep_rt[g] = c.rep_rt_m;
    sites_data.insert(sites_data.end(), c.sites.begin(), c.sites.end());
    sites_offsets[g + 1] = sites_data.size();
    cl_data.insert(cl_data.end(), c.cl.begin(), c.cl.end());
    cl_offsets[g + 1] = cl_data.size();
  }
  put_array(centers.data(), centers.size() * sizeof(uint32_t));
  put_array(reps.data(), reps.size() * sizeof(uint32_t));
  put_array(rep_rt.data(), rep_rt.size() * sizeof(float));
  put_array(sites_offsets.data(), sites_offsets.size() * sizeof(uint64_t));
  put_array(sites_data.data(), sites_data.size() * sizeof(uint32_t));
  put_array(cl_offsets.data(), cl_offsets.size() * sizeof(uint64_t));
  put_array(cl_data.data(), cl_data.size() * sizeof(ClEntry));

  put_array(tl.offsets_block().data(), tl.offsets_block().size());
  put_array(tl.data_block().data(), tl.data_block().size());
  put_array(cc.offsets_block().data(), cc.offsets_block().size());
  put_array(cc.data_block().data(), cc.data_block().size());

  std::vector<uint8_t> removed_bits((site_removed_.size() + 7) / 8, 0);
  for (size_t i = 0; i < site_removed_.size(); ++i) {
    if (site_removed_[i]) removed_bits[i / 8] |= 1u << (i % 8);
  }
  put_array(removed_bits.data(), removed_bits.size());
}

bool ClusterIndex::ReadBinary(store::ByteReader& in, ClusterIndex* out,
                              std::string* error) {
  ClusterIndex index;
  index.config_.radius_m = in.F64();
  index.config_.gamma = in.F64();
  index.config_.gdsp_strategy = static_cast<GdspStrategy>(in.U32());
  index.config_.fm_copies = in.U32();
  index.config_.representative_rule = static_cast<RepresentativeRule>(in.U32());
  in.U32();  // pad
  index.stats_.gdsp_seconds = in.F64();
  index.stats_.build_seconds = in.F64();
  index.stats_.mean_dominating_set_size = in.F64();
  index.stats_.mean_tl_size = in.F64();
  index.stats_.mean_cl_size = in.F64();
  index.stats_.compressed_postings = in.U64();
  index.stats_.raw_postings = in.U64();
  const uint64_t num_nodes = in.U64();
  const uint64_t num_clusters = in.U64();
  const uint64_t num_seqs = in.U64();
  const uint64_t num_site_flags = in.U64();
  if (!in.ok() || num_nodes > kMaxListLength ||
      num_clusters > kMaxListLength || num_seqs > kMaxListLength ||
      num_site_flags > kMaxListLength) {
    return Fail(error, "instance blob: bad scalar header");
  }

  struct Descriptor {
    uint64_t offset = 0;
    uint64_t bytes = 0;
  };
  Descriptor table[kNumArrays];
  for (auto& d : table) {
    d.offset = in.U64();
    d.bytes = in.U64();
  }
  if (!in.ok()) return Fail(error, "instance blob: truncated array table");
  store::ByteBlock arrays[kNumArrays];
  for (size_t i = 0; i < kNumArrays; ++i) {
    arrays[i] = in.SubBlock(table[i].offset, table[i].bytes);
    if (!in.ok()) {
      return Fail(error,
                  util::StrFormat("instance blob: array %zu out of bounds", i));
    }
  }

  if (!CopyArray(arrays[kArrNodeCluster], num_nodes, &index.node_cluster_,
                 error, "node_cluster") ||
      !CopyArray(arrays[kArrNodeRt], num_nodes, &index.node_rt_, error,
                 "node_rt")) {
    return false;
  }
  std::vector<uint32_t> centers, reps, sites_data;
  std::vector<float> rep_rt;
  std::vector<uint64_t> sites_offsets, cl_offsets;
  std::vector<ClEntry> cl_data;
  if (!CopyArray(arrays[kArrCenters], num_clusters, &centers, error,
                 "centers") ||
      !CopyArray(arrays[kArrRepresentatives], num_clusters, &reps, error,
                 "representatives") ||
      !CopyArray(arrays[kArrRepRt], num_clusters, &rep_rt, error, "rep_rt") ||
      !CopyArray(arrays[kArrSitesOffsets], num_clusters + 1, &sites_offsets,
                 error, "sites_offsets") ||
      !CopyArray(arrays[kArrClOffsets], num_clusters + 1, &cl_offsets, error,
                 "cl_offsets")) {
    return false;
  }
  const uint64_t total_sites = sites_offsets.back();
  const uint64_t total_cl = cl_offsets.back();
  if (total_sites > kMaxListLength || total_cl > kMaxListLength) {
    return Fail(error, "instance blob: implausible list totals");
  }
  if (!CopyArray(arrays[kArrSitesData], total_sites, &sites_data, error,
                 "sites_data") ||
      !CopyArray(arrays[kArrClData], total_cl, &cl_data, error, "cl_data")) {
    return false;
  }
  for (size_t g = 0; g < num_clusters; ++g) {
    if (sites_offsets[g] > sites_offsets[g + 1] ||
        cl_offsets[g] > cl_offsets[g + 1]) {
      return Fail(error, "instance blob: non-monotonic offsets");
    }
  }

  // Posting arenas alias the file block zero-copy; FromBlocks validates
  // every varint stream before anything trusts them.
  if (!store::PostingArena::FromBlocks(
          arrays[kArrTlData], arrays[kArrTlOffsets], num_clusters,
          store::ListKind::kPair, &index.tl_arena_, error) ||
      !store::PostingArena::FromBlocks(
          arrays[kArrCcData], arrays[kArrCcOffsets], num_seqs,
          store::ListKind::kU32, &index.cc_arena_, error)) {
    return false;
  }
  index.cc_count_ = num_seqs;

  index.clusters_.resize(num_clusters);
  for (size_t g = 0; g < num_clusters; ++g) {
    Cluster& c = index.clusters_[g];
    c.center = centers[g];
    c.representative = reps[g];
    c.rep_rt_m = rep_rt[g];
    c.sites.assign(sites_data.begin() + sites_offsets[g],
                   sites_data.begin() + sites_offsets[g + 1]);
    c.cl.assign(cl_data.begin() + cl_offsets[g],
                cl_data.begin() + cl_offsets[g + 1]);
    c.tl.Freeze(index.tl_arena_.PairList<TlEntry>(g));
  }

  const store::ByteBlock& removed = arrays[kArrSiteRemoved];
  if (removed.size() != (num_site_flags + 7) / 8) {
    return Fail(error, "instance blob: bad site_removed bitmap");
  }
  index.site_removed_.resize(num_site_flags);
  for (size_t i = 0; i < num_site_flags; ++i) {
    index.site_removed_[i] = (removed.data()[i / 8] >> (i % 8)) & 1;
  }

  // CC entries must reference clusters of this instance.
  for (traj::TrajId t = 0; t < index.cc_count_; ++t) {
    for (const uint32_t g : index.cluster_sequence_view(t)) {
      if (g >= num_clusters) {
        return Fail(error, "cluster id out of range in sequence");
      }
    }
  }
  if (!ValidateInstanceStructure(index, error)) return false;
  *out = std::move(index);
  return true;
}

// ---------------------------------------------------------------------------
// MultiIndex — the index file
//
// File layout (all little-endian; see docs/index_format.md):
//   header  : magic "NCIXBIN3", endian probe, version, file size,
//             section-table offset, section count
//   sections: 8-aligned payloads (meta, one per instance, optional
//             backend)
//   table   : per-section {kind, offset, bytes, FNV-1a checksum}
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'N', 'C', 'I', 'X', 'B', 'I', 'N', '3'};
constexpr uint32_t kEndianProbe = 0x01020304;
constexpr uint32_t kVersion = 3;
constexpr char kMagicError[] = "missing/unknown index magic (want NCIXBIN3)";

bool HasMagic(const void* data, size_t size) {
  return size >= sizeof(kMagic) &&
         std::memcmp(data, kMagic, sizeof(kMagic)) == 0;
}

enum SectionKind : uint32_t {
  kSectionMeta = 1,
  kSectionInstance = 2,
  kSectionBackend = 3,
};

struct Section {
  uint32_t kind = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

// Produces the sections one at a time through `emit(kind, payload)`,
// so the streaming writer below holds at most one section's bytes in
// memory at once (the whole-image transient of a country-scale index
// would rival the index itself). Uses only the public MultiIndex API.
template <typename Emit>
void ForEachSection(const MultiIndex& index,
                    const graph::spf::DistanceBackend* backend, Emit&& emit) {
  {
    store::ByteWriter meta;
    meta.F64(index.gamma());
    meta.F64(index.tau_min_m());
    meta.F64(index.tau_max_m());
    meta.F64(index.build_seconds());
    meta.U64(index.num_instances());
    size_t nodes = 0, trajs = 0;
    if (index.num_instances() > 0) {
      nodes = index.instance(0).num_nodes();
      trajs = index.instance(0).num_sequences();
    }
    meta.U64(nodes);
    meta.U64(trajs);
    emit(kSectionMeta, meta.TakeBytes());
  }
  for (size_t p = 0; p < index.num_instances(); ++p) {
    store::ByteWriter blob;
    index.instance(p).WriteBinary(blob);
    emit(kSectionInstance, blob.TakeBytes());
  }
  if (backend != nullptr) {
    store::ByteWriter b;
    const std::string name = graph::spf::BackendName(backend->kind());
    b.U32(static_cast<uint32_t>(name.size()));
    b.Bytes(name.data(), name.size());
    std::string payload;
    if (backend->kind() == graph::spf::BackendKind::kContractionHierarchies) {
      std::ostringstream ch_text;
      static_cast<const graph::spf::ContractionHierarchy*>(backend)->WriteTo(
          ch_text);
      payload = std::move(ch_text).str();
    }
    b.U64(payload.size());
    b.Bytes(payload.data(), payload.size());
    emit(kSectionBackend, b.TakeBytes());
  }
}

}  // namespace

void WriteIndex(const MultiIndex& index,
                const graph::spf::DistanceBackend* backend, std::ostream& os) {
  auto put_u32 = [&os](uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_u64 = [&os](uint64_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  os.write(kMagic, sizeof(kMagic));
  put_u32(kEndianProbe);
  put_u32(kVersion);
  const std::streampos file_size_pos = os.tellp();
  put_u64(0);  // file size, patched below
  const std::streampos table_offset_pos = os.tellp();
  put_u64(0);  // section-table offset, patched below
  const uint32_t section_count = static_cast<uint32_t>(
      1 + index.num_instances() + (backend != nullptr ? 1 : 0));
  put_u32(section_count);
  put_u32(0);  // pad

  uint64_t pos = 40;  // bytes written so far (the fixed header)
  std::vector<Section> sections;
  auto align8 = [&] {
    while (pos % 8 != 0) {
      os.put(0);
      ++pos;
    }
  };
  ForEachSection(index, backend,
                 [&](uint32_t kind, std::vector<uint8_t> payload) {
                   align8();
                   Section s;
                   s.kind = kind;
                   s.offset = pos;
                   s.bytes = payload.size();
                   s.checksum = store::Fnv1a64(payload.data(), payload.size());
                   os.write(reinterpret_cast<const char*>(payload.data()),
                            static_cast<std::streamsize>(payload.size()));
                   pos += payload.size();
                   sections.push_back(s);
                 });

  align8();
  const uint64_t table_offset = pos;
  for (const Section& s : sections) {
    put_u32(s.kind);
    put_u32(0);
    put_u64(s.offset);
    put_u64(s.bytes);
    put_u64(s.checksum);
    pos += 32;
  }
  os.seekp(file_size_pos);
  put_u64(pos);
  os.seekp(table_offset_pos);
  put_u64(table_offset);
  os.seekp(0, std::ios::end);
}

std::vector<uint8_t> EncodeIndex(const MultiIndex& index,
                                 const graph::spf::DistanceBackend* backend) {
  std::ostringstream buffer;
  WriteIndex(index, backend, buffer);
  const std::string bytes = std::move(buffer).str();
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

bool ReadIndex(store::ByteBlock block, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error, const graph::RoadNetwork* net,
               std::shared_ptr<const graph::spf::DistanceBackend>* backend) {
  if (!HasMagic(block.data(), block.size())) return Fail(error, kMagicError);
  store::ByteReader header(block);
  header.Skip(sizeof(kMagic));
  if (header.U32() != kEndianProbe) {
    return Fail(error, "endianness mismatch or corrupt header");
  }
  // The version field must agree with the magic — a mismatch means a
  // corrupt or hand-edited header, not a future format.
  if (header.U32() != kVersion) {
    return Fail(error, "unsupported index format version");
  }
  const uint64_t file_size = header.U64();
  const uint64_t table_offset = header.U64();
  const uint32_t section_count = header.U32();
  header.U32();  // pad
  if (!header.ok() || file_size != block.size()) {
    return Fail(error, "truncated index file (size mismatch)");
  }
  if (section_count > kMaxInstances + 2) {
    return Fail(error, "implausible section count");
  }
  constexpr size_t kSectionEntryBytes = 32;
  store::ByteReader table(header.SubBlock(
      table_offset, static_cast<uint64_t>(section_count) * kSectionEntryBytes));
  if (!header.ok()) return Fail(error, "section table out of bounds");

  std::vector<Section> sections(section_count);
  for (Section& s : sections) {
    s.kind = table.U32();
    table.U32();  // pad
    s.offset = table.U64();
    s.bytes = table.U64();
    s.checksum = table.U64();
  }
  if (!table.ok()) return Fail(error, "truncated section table");
  for (const Section& s : sections) {
    if (s.offset > block.size() || s.bytes > block.size() - s.offset) {
      return Fail(error, "section out of bounds");
    }
    if (store::Fnv1a64(block.data() + s.offset, s.bytes) != s.checksum) {
      return Fail(error, util::StrFormat(
                             "checksum mismatch in section kind %u (corrupt "
                             "or truncated file)",
                             s.kind));
    }
  }

  MultiIndex loaded;
  size_t nodes = 0, trajs = 0;
  uint64_t declared_instances = 0;
  bool saw_meta = false;
  for (const Section& s : sections) {
    store::ByteReader r(block.Slice(s.offset, s.bytes));
    switch (s.kind) {
      case kSectionMeta: {
        loaded.config_.gamma = r.F64();
        loaded.tau_min_ = r.F64();
        loaded.tau_max_ = r.F64();
        loaded.build_seconds_ = r.F64();
        declared_instances = r.U64();
        nodes = r.U64();
        trajs = r.U64();
        if (!r.ok()) return Fail(error, "bad meta section");
        if (nodes != expected_nodes) {
          return Fail(error, util::StrFormat(
                                 "index built over %zu nodes, corpus has %zu",
                                 nodes, expected_nodes));
        }
        if (trajs > expected_trajectories) {
          return Fail(error,
                      util::StrFormat(
                          "index references %zu trajectories, corpus has %zu",
                          trajs, expected_trajectories));
        }
        saw_meta = true;
        break;
      }
      case kSectionInstance: {
        auto instance = std::make_unique<ClusterIndex>();
        if (!ClusterIndex::ReadBinary(r, instance.get(), error)) {
          return false;
        }
        // Cross-check the blob's self-declared id spaces against the live
        // corpus (not just the meta section): ids validated only against
        // file-controlled sizes would still index live-sized arrays out
        // of bounds at query time.
        if (instance->num_nodes() != expected_nodes) {
          return Fail(error, "instance node count mismatch");
        }
        if (instance->num_sequences() > expected_trajectories) {
          return Fail(error, "instance trajectory count mismatch");
        }
        loaded.instances_.push_back(std::move(instance));
        break;
      }
      case kSectionBackend: {
        const uint32_t name_len = r.U32();
        if (!r.ok() || name_len > 64) {
          return Fail(error, "bad backend section");
        }
        std::string name(name_len, '\0');
        if (!r.Bytes(name.data(), name_len)) {
          return Fail(error, "truncated backend name");
        }
        const uint64_t payload_len = r.U64();
        if (!r.ok() || payload_len > r.remaining()) {
          return Fail(error, "truncated backend payload");
        }
        const std::optional<graph::spf::BackendKind> kind =
            graph::spf::ParseBackendName(name);
        if (!kind.has_value()) return Fail(error, "unknown backend: " + name);
        if (net == nullptr || backend == nullptr) break;  // caller opted out
        if (*kind == graph::spf::BackendKind::kContractionHierarchies) {
          std::string payload(static_cast<size_t>(payload_len), '\0');
          r.Bytes(payload.data(), payload.size());
          std::istringstream ch_text(std::move(payload));
          std::unique_ptr<graph::spf::ContractionHierarchy> ch;
          if (!graph::spf::ContractionHierarchy::ReadFrom(ch_text, net, &ch,
                                                          error)) {
            return false;
          }
          *backend = std::move(ch);
        } else {
          *backend = graph::spf::MakeBackend(*kind, net);
        }
        break;
      }
      default:
        return Fail(error,
                    util::StrFormat("unknown section kind %u", s.kind));
    }
  }
  if (!saw_meta) return Fail(error, "missing meta section");
  if (loaded.instances_.size() != declared_instances) {
    return Fail(error, "instance count mismatch");
  }
  *index = std::move(loaded);
  return true;
}

// ---------------------------------------------------------------------------
// File wrappers
// ---------------------------------------------------------------------------

bool SaveIndex(const MultiIndex& index, const std::string& path,
               std::string* error) {
  return SaveIndex(index, nullptr, path, error);
}

bool SaveIndex(const MultiIndex& index,
               const graph::spf::DistanceBackend* backend,
               const std::string& path, std::string* error) {
  // Write a sibling file and rename it over `path`. Truncating `path` in
  // place would pull the bytes out from under any index mmap-loaded from
  // it — including `index` itself, whose pristine arenas are copied out
  // of that mapping below (SIGBUS). Renaming keeps the old inode alive for
  // live mappings, and a failed write leaves the previous file intact.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Fail(error, "cannot open for write: " + tmp);
    WriteIndex(index, backend, out);  // streams section by section
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return Fail(error, "write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    return Fail(error, "cannot replace " + path + ": " + why);
  }
  return true;
}

bool LoadIndex(const std::string& path, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error) {
  return LoadIndex(path, expected_nodes, expected_trajectories, index, error,
                   nullptr, nullptr, IndexLoadMode::kAuto);
}

bool LoadIndex(const std::string& path, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error, const graph::RoadNetwork* net,
               std::shared_ptr<const graph::spf::DistanceBackend>* backend,
               IndexLoadMode mode) {
  // Check the magic before mapping, so a file in any other format (or an
  // empty one, which cannot be mapped) fails with the same error in every
  // load mode.
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return Fail(error, "cannot open for read: " + path);
    char magic[sizeof(kMagic)] = {};
    probe.read(magic, sizeof(magic));
    if (!HasMagic(magic, static_cast<size_t>(probe.gcount()))) {
      return Fail(error, kMagicError);
    }
  }

  bool use_mmap = mode == IndexLoadMode::kMmap;
  if (mode == IndexLoadMode::kAuto) {
    use_mmap = util::GetEnvInt("NETCLUS_INDEX_MMAP", 1) != 0;
  }
  store::ByteBlock block;
  store::BufferPool* pool = nullptr;
  if (use_mmap) {
    std::string mmap_error;
    // NETCLUS_PAGE_BUDGET caps mapping residency (buffer_pool.h); the
    // pool is owned by the MappedFile, which the arenas keep alive.
    if (auto mapped = store::MappedFile::Open(
            path, &mmap_error, store::BufferPool::BudgetFromEnv())) {
      pool = mapped->pool();
      block = store::MappedFile::Block(std::move(mapped));
    } else if (mode == IndexLoadMode::kMmap) {
      return Fail(error, mmap_error);
    }
  }
  if (block.empty()) {
    block = store::ReadFileBlock(path, error);
    if (block.empty()) return false;
  }
  if (!ReadIndex(std::move(block), expected_nodes, expected_trajectories,
                 index, error, net, backend)) {
    return false;
  }
  // Load-time validation touched (and its page faults made resident) the
  // whole mapping; evict back to a cold state so serving starts within
  // the page budget rather than at whatever validation left resident.
  if (pool != nullptr) pool->DropAll();
  return true;
}

}  // namespace netclus::index
