// Persistence for the NetClus index.
//
// The offline phase (multi-resolution clustering) is the expensive part of
// the system — hours on the paper's full Beijing dataset (Table 11) — while
// the online phase is interactive. A deployment therefore builds the index
// once and serves queries from a loaded copy. The file is one versioned
// little-endian binary layout (magic "NCIXBIN3", format version 3): a
// section table with per-section FNV-1a checksums, and posting arenas
// stored verbatim as 128-entry blocked varint streams (per-block skip
// headers, SIMD bulk decode) with Elias–Fano offset tables. Any file
// without that magic is rejected (docs/index_format.md covers converting
// files written in earlier formats).
//
// Loading either copies the file once into a heap block or mmaps it; in
// both cases the compressed TL/CC arenas alias the backing block
// zero-copy, so Engine::LoadIndexFromFile and the serving layer's
// snapshots share one set of immutable posting bytes. On the mmap path a
// nonzero NETCLUS_PAGE_BUDGET attaches a store::BufferPool that caps how
// much of the mapping stays resident — larger-than-RAM indexes serve
// within a fixed budget. Saving writes a sibling file and renames it over
// the target, so saving over a file that is mapped stays safe. See
// docs/index_format.md for the byte layout.
//
// The road network and the trajectory store are NOT serialized here — they
// are the inputs (persist them with graph::SaveGraph and your trajectory
// source of truth); loading validates that node/trajectory counts match.
//
// The distance backend that built the index can ride along in an optional
// backend section: the kind is always recorded, and a Contraction
// Hierarchies backend serializes its full preprocessed hierarchy, so a
// deployment that ships index snapshots never re-contracts on load. Files
// without the section still load.
//
// Malformed input — truncated files, corrupt counts, checksum mismatches —
// fails loudly with a message in `error` and never yields a
// partially-initialized index.
#ifndef NETCLUS_NETCLUS_INDEX_IO_H_
#define NETCLUS_NETCLUS_INDEX_IO_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "graph/spf/distance_backend.h"
#include "netclus/multi_index.h"
#include "store/arena.h"

namespace netclus::index {

/// How LoadIndex materializes the file.
enum class IndexLoadMode {
  kAuto,  ///< mmap when available unless NETCLUS_INDEX_MMAP=0; else copy
  kCopy,  ///< read the file into one heap block
  kMmap,  ///< map the file; posting arenas alias the mapping (zero copy)
};

/// Streams the index (and optional backend, may be null) to `os`, one
/// section at a time — peak transient memory is one serialized section,
/// not the whole image. Requires a seekable stream (the header and
/// section table are patched at the end). The image is self-contained
/// relative to the stream position at entry: all recorded offsets count
/// from the image's first byte, so an image embedded after a preamble
/// must later be handed to ReadIndex as a block starting at that position
/// (LoadIndex expects the image at file offset 0).
void WriteIndex(const MultiIndex& index,
                const graph::spf::DistanceBackend* backend, std::ostream& os);

/// Serializes the index (and optional backend) into an image held in
/// memory (tests and small indexes; SaveIndex streams instead).
std::vector<uint8_t> EncodeIndex(const MultiIndex& index,
                                 const graph::spf::DistanceBackend* backend);

/// Parses an index image. The block may alias an mmap'ed file or a heap
/// read; the loaded index's posting arenas alias it either way (and keep
/// it alive). Checksums are verified before anything is trusted.
/// `expected_nodes` and `expected_trajectories` guard against loading an
/// index built over a different network/corpus (pass the live counts).
/// Returns false with a message in `error` on any mismatch or malformed
/// input.
///
/// When `net` and `backend` are given, a backend section in the file is
/// reconstructed over `net` into `*backend` (left null when the file has
/// none).
bool ReadIndex(store::ByteBlock block, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error, const graph::RoadNetwork* net,
               std::shared_ptr<const graph::spf::DistanceBackend>* backend);

/// File convenience wrappers. LoadIndex rejects any file without the
/// format's magic.
bool SaveIndex(const MultiIndex& index, const std::string& path,
               std::string* error);
bool SaveIndex(const MultiIndex& index,
               const graph::spf::DistanceBackend* backend,
               const std::string& path, std::string* error);
bool LoadIndex(const std::string& path, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error);
bool LoadIndex(const std::string& path, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error, const graph::RoadNetwork* net,
               std::shared_ptr<const graph::spf::DistanceBackend>* backend,
               IndexLoadMode mode = IndexLoadMode::kAuto);

}  // namespace netclus::index

#endif  // NETCLUS_NETCLUS_INDEX_IO_H_
