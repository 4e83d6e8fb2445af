// Read-only memory-mapped files for zero-copy index loading.
//
// The index format stores posting arenas as verbatim byte ranges, so a
// loaded index can point straight into the mapping instead of copying:
// MappedFile::Open maps the file once, block() hands out a refcounted
// ByteBlock aliasing it, and the mapping is unmapped when the last block
// (i.e. the last index/snapshot referencing it) is released. Pages are
// faulted in on first touch — the checksum pass at load reads them
// sequentially, after which queries hit resident memory.
//
// Platforms without POSIX mmap get a graceful failure from Open; callers
// (index_io's LoadIndex) fall back to a whole-file heap read, which flows
// through the identical aliasing code path.
#ifndef NETCLUS_STORE_MMAP_FILE_H_
#define NETCLUS_STORE_MMAP_FILE_H_

#include <memory>
#include <string>

#include "store/arena.h"
#include "store/buffer_pool.h"

namespace netclus::store {

class MappedFile {
 public:
  /// Maps `path` read-only. Returns null with a message in `error` when
  /// the file cannot be opened/mapped (including: empty file, or a
  /// platform without mmap support). A nonzero `page_budget_bytes`
  /// attaches a BufferPool that caps how much of the mapping stays
  /// resident (see buffer_pool.h); 0 leaves residency to the OS.
  static std::shared_ptr<MappedFile> Open(const std::string& path,
                                          std::string* error,
                                          uint64_t page_budget_bytes = 0);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// The residency pool, or null when no budget was set.
  BufferPool* pool() const { return pool_.get(); }

  /// A ByteBlock aliasing the whole mapping; keeps the mapping alive.
  static ByteBlock Block(std::shared_ptr<MappedFile> file) {
    const uint8_t* data = file->data();
    const size_t size = file->size();
    return ByteBlock::Alias(std::move(file), data, size);
  }

 private:
  MappedFile() = default;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::unique_ptr<BufferPool> pool_;
};

/// Reads the whole file into an owned ByteBlock (the copy-mode loader and
/// the mmap fallback). Empty block + message in `error` on failure.
ByteBlock ReadFileBlock(const std::string& path, std::string* error);

}  // namespace netclus::store

#endif  // NETCLUS_STORE_MMAP_FILE_H_
