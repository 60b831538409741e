#ifndef REVERE_COMMON_ARENA_H_
#define REVERE_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace revere {

/// Bump allocator for query-execution intermediates (ISSUE 7). The
/// columnar evaluator allocates every selection vector and row-id batch
/// here, so the per-batch hot loop performs zero heap allocations once
/// the arena has warmed up: Reset() rewinds the bump pointer but keeps
/// every block, and subsequent batches reuse the same memory.
///
/// Not thread-safe — one Arena per evaluation, never shared. Allocated
/// memory is trivially "freed" by Reset()/destruction; only trivially
/// destructible payloads (row ids, codes, selection indexes) belong
/// here, since destructors are never run.
class Arena {
 public:
  explicit Arena(size_t initial_block_bytes = 64 * 1024)
      : initial_block_bytes_(initial_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw allocation, aligned to alignof(std::max_align_t).
  void* Allocate(size_t bytes) {
    constexpr size_t kAlign = alignof(std::max_align_t);
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    if (block_ >= blocks_.size() || used_ + bytes > blocks_[block_].size) {
      NextBlockFor(bytes);
    }
    void* p = blocks_[block_].data.get() + used_;
    used_ += bytes;
    allocated_ += bytes;
    return p;
  }

  /// Typed array of `n` default-initialized (i.e. uninitialized for
  /// scalars) elements. T must be trivially destructible.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T*>(Allocate(n * sizeof(T)));
  }

  /// Rewinds to empty while keeping every block for reuse. After the
  /// first batch warms the arena, steady-state batches allocate from
  /// recycled blocks only.
  void Reset() {
    block_ = 0;
    used_ = 0;
    allocated_ = 0;
  }

  /// Bytes handed out since the last Reset (after alignment rounding).
  size_t bytes_allocated() const { return allocated_; }
  /// Total bytes of backing blocks currently held (never shrinks).
  size_t bytes_reserved() const { return reserved_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  /// Advances to the next block able to hold `bytes`, growing the block
  /// ladder geometrically when none fits.
  void NextBlockFor(size_t bytes) {
    // Try existing blocks first (Reset keeps them allocated).
    size_t next = block_ >= blocks_.size() ? blocks_.size() : block_ + 1;
    while (next < blocks_.size() && blocks_[next].size < bytes) ++next;
    if (next >= blocks_.size()) {
      size_t size = blocks_.empty() ? initial_block_bytes_
                                    : blocks_.back().size * 2;
      while (size < bytes) size *= 2;
      // Uninitialized, like every AllocateArray result: zero-filling
      // would cost a memset per block on every evaluation.
      blocks_.push_back(Block{std::make_unique_for_overwrite<char[]>(size),
                              size});
      reserved_ += size;
      next = blocks_.size() - 1;
    }
    block_ = next;
    used_ = 0;
  }

  size_t initial_block_bytes_;
  std::vector<Block> blocks_;
  size_t block_ = 0;  // current block index (may equal blocks_.size())
  size_t used_ = 0;   // bytes used in the current block
  size_t allocated_ = 0;
  size_t reserved_ = 0;
};

}  // namespace revere

#endif  // REVERE_COMMON_ARENA_H_
