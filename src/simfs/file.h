// FileData: the persistent (immutable-value) byte container behind every simfs
// regular file.
//
// Contents are stored as fixed-size chunks behind shared_ptr<const Chunk>; a
// FileData value is a chunk-pointer table plus a length. Copying a FileData is
// O(chunks) pointer copies and shares every chunk payload, so two snapshots of a
// filesystem share all bytes they have in common — the paper's §3.1 "immutable
// files ... encode the state in a space-efficient manner". A write copies only
// the chunks it touches (chunk-granular copy-on-write, the file analogue of the
// arena's page-granular CoW). Null chunk pointers are holes that read as zeros,
// so sparse files cost nothing until written.

#ifndef LWSNAP_SRC_SIMFS_FILE_H_
#define LWSNAP_SRC_SIMFS_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lw {

class FileData {
 public:
  static constexpr size_t kChunkSize = 4096;

  FileData() = default;

  // Builds contents from a byte string (test/bootstrap convenience).
  static FileData FromString(std::string_view bytes);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Number of chunk slots currently materialized (holes included).
  size_t chunk_count() const { return chunks_.size(); }

  // Bytes of chunk payload this value keeps alive, counting shared chunks once
  // per reference (callers dedupe across files if they need exact residency).
  size_t MaterializedBytes() const;

  // Reads up to `len` bytes at `offset` into `out`; returns the number of bytes
  // read (0 at or past EOF). Holes read as zeros.
  size_t Read(size_t offset, void* out, size_t len) const;

  // Functional update: returns a new FileData with `data[0, len)` written at
  // `offset`, extending the file (with a zero hole) if the write lands past the
  // current end. Chunks untouched by the write are shared with *this.
  FileData Write(size_t offset, const void* data, size_t len) const;

  // Functional truncate/extend. Shrinking drops whole chunks past the new end
  // and zero-fills the tail of the boundary chunk (so re-extending reads zeros,
  // matching POSIX truncate semantics). Growing creates a hole.
  FileData Truncate(size_t new_size) const;

  // Whole-contents copy as a string (tests and small files only).
  std::string ToString() const;

  // Deep equality (byte-wise; holes equal to explicit zeros).
  bool ContentEquals(const FileData& other) const;

  // True if this value and `other` share their chunk table entry for `chunk`
  // (both null counts as shared). Exposed for structural-sharing tests.
  bool SharesChunkWith(const FileData& other, size_t chunk) const;

 private:
  struct Chunk {
    uint8_t bytes[kChunkSize];
  };
  using ChunkPtr = std::shared_ptr<const Chunk>;

  // Returns a mutable copy of chunks_[index] (zero-filled if it was a hole).
  static std::shared_ptr<Chunk> MutableChunk(const ChunkPtr& chunk);

  std::vector<ChunkPtr> chunks_;
  size_t size_ = 0;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SIMFS_FILE_H_
