#include "runtime/tier.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "util/ensure.h"

namespace ulc {

void NearTier::evict(BlockId block) {
  ULC_REQUIRE(pin_count(block) == 0,
              "evicting a pinned block (write-back still in flight)");
  do_evict(block);
}

void NearTier::pin(BlockId block) {
  if (std::uint32_t* n = pins_.find(block)) {
    ++*n;
  } else {
    pins_.insert_new(block, 1);
  }
}

void NearTier::unpin(BlockId block) {
  std::uint32_t* n = pins_.find(block);
  ULC_REQUIRE(n != nullptr, "unpin of a block that holds no pin");
  if (--*n == 0) pins_.erase(block);
}

std::uint32_t NearTier::pin_count(BlockId block) const {
  const std::uint32_t* n = pins_.find(block);
  return n == nullptr ? 0 : *n;
}

namespace {

// Uninitialized bytes: untouched slots cost address space, not memory.
std::unique_ptr<std::byte[]> slab_bytes(std::size_t n) {
  return std::make_unique_for_overwrite<std::byte[]>(n);
}

// One arena of capacity + 1 block slots (the most the placement engine may
// ever make the tier hold), a block -> slot map and a stack of free slot
// indices — the ucache shape: a store into a fresh slot pops the stack, an
// evict pushes the slot back, neither allocates.
class MemoryNearTier final : public NearTier {
 public:
  MemoryNearTier(std::size_t capacity, std::size_t block_size)
      : capacity_(capacity),
        block_size_(block_size),
        arena_(slab_bytes((capacity + 1) * block_size)) {
    slot_of_.reserve(capacity + 1);
    free_.reserve(capacity + 1);
    // Lowest slots on top, so a tier that never fills touches a prefix.
    for (std::size_t i = capacity + 1; i-- > 0;) free_.push_back(i);
  }

  bool fetch(BlockId block, std::span<std::byte> out) override {
    ULC_REQUIRE(out.size() >= block_size_, "fetch buffer too small");
    const std::size_t* slot = slot_of_.find(block);
    if (slot == nullptr) return false;
    std::memcpy(out.data(), slot_data(*slot), block_size_);
    return true;
  }

  void store(BlockId block, std::span<const std::byte> data) override {
    ULC_REQUIRE(data.size() >= block_size_, "store buffer too small");
    const std::size_t* found = slot_of_.find(block);
    std::size_t slot;
    if (found != nullptr) {
      slot = *found;  // overwrite in place
    } else {
      // Always on: past the arena's last slot a store would corrupt memory.
      ULC_REQUIRE(!free_.empty(),
                  "near tier overfilled: the placement engine must bound it");
      slot = free_.back();
      free_.pop_back();
      slot_of_.insert_new(block, slot);
    }
    std::memcpy(slot_data(slot), data.data(), block_size_);
  }

  std::size_t capacity_blocks() const override { return capacity_; }
  std::size_t block_size() const override { return block_size_; }

 protected:
  void do_evict(BlockId block) override {
    const std::size_t* slot = slot_of_.find(block);
    if (slot == nullptr) return;
    free_.push_back(*slot);
    slot_of_.erase(block);
  }

 private:
  std::byte* slot_data(std::size_t slot) { return arena_.get() + slot * block_size_; }

  std::size_t capacity_;
  std::size_t block_size_;
  std::unique_ptr<std::byte[]> arena_;
  FlatMap<BlockId, std::size_t> slot_of_;
  std::vector<std::size_t> free_;  // vacant slot indices (a stack)
};

// Blocks are never removed from the origin, so its slots only grow: slot s
// lives in chunk s / kChunkBlocks. A first write takes the next slot (and a
// fresh chunk every kChunkBlocks writes); rewrites copy in place.
class MemoryOrigin final : public Origin {
 public:
  explicit MemoryOrigin(std::size_t block_size) : block_size_(block_size) {}

  void read(BlockId block, std::span<std::byte> out) override {
    ULC_REQUIRE(out.size() >= block_size_, "read buffer too small");
    const std::size_t* slot = slot_of_.find(block);
    if (slot == nullptr) {
      std::memset(out.data(), 0, block_size_);
      return;
    }
    std::memcpy(out.data(), slot_data(*slot), block_size_);
  }

  void write(BlockId block, std::span<const std::byte> data) override {
    ULC_REQUIRE(data.size() >= block_size_, "write buffer too small");
    const std::size_t* found = slot_of_.find(block);
    std::size_t slot;
    if (found != nullptr) {
      slot = *found;
    } else {
      slot = slots_++;
      if (slot % kChunkBlocks == 0) chunks_.push_back(slab_bytes(kChunkBlocks * block_size_));
      slot_of_.insert_new(block, slot);
    }
    std::memcpy(slot_data(slot), data.data(), block_size_);
  }

 private:
  static constexpr std::size_t kChunkBlocks = 256;

  std::byte* slot_data(std::size_t slot) {
    return chunks_[slot / kChunkBlocks].get() + (slot % kChunkBlocks) * block_size_;
  }

  std::size_t block_size_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  FlatMap<BlockId, std::size_t> slot_of_;
  std::size_t slots_ = 0;  // slots handed out so far
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_rw(const std::string& path) {
  // Open for update, creating if needed.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (!f) f = std::fopen(path.c_str(), "w+b");
  ULC_REQUIRE(f != nullptr, "cannot open tier file");
  return FilePtr(f);
}

// Slot-mapped cache file: block contents live in fixed slots; a directory
// maps block id -> slot, with a free list of vacated slots.
class FileNearTier final : public NearTier {
 public:
  FileNearTier(const std::string& path, std::size_t capacity, std::size_t block_size)
      : file_(open_rw(path)), capacity_(capacity), block_size_(block_size) {}

  bool fetch(BlockId block, std::span<std::byte> out) override {
    ULC_REQUIRE(out.size() >= block_size_, "fetch buffer too small");
    const std::size_t* slot = slots_.find(block);
    if (slot == nullptr) return false;
    read_slot(*slot, out);
    return true;
  }

  void store(BlockId block, std::span<const std::byte> data) override {
    ULC_REQUIRE(data.size() >= block_size_, "store buffer too small");
    const std::size_t* found = slots_.find(block);
    std::size_t slot;
    if (found != nullptr) {
      slot = *found;
    } else if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_.insert_new(block, slot);
    } else {
      slot = next_slot_++;
      slots_.insert_new(block, slot);
    }
    const long off = static_cast<long>(slot * block_size_);
    ULC_REQUIRE(std::fseek(file_.get(), off, SEEK_SET) == 0, "tier seek failed");
    ULC_REQUIRE(std::fwrite(data.data(), 1, block_size_, file_.get()) == block_size_,
                "tier write failed");
  }

  std::size_t capacity_blocks() const override { return capacity_; }
  std::size_t block_size() const override { return block_size_; }

 protected:
  void do_evict(BlockId block) override {
    const std::size_t* slot = slots_.find(block);
    if (slot == nullptr) return;
    free_slots_.push_back(*slot);
    slots_.erase(block);
  }

 private:
  void read_slot(std::size_t slot, std::span<std::byte> out) {
    const long off = static_cast<long>(slot * block_size_);
    ULC_REQUIRE(std::fseek(file_.get(), off, SEEK_SET) == 0, "tier seek failed");
    ULC_REQUIRE(std::fread(out.data(), 1, block_size_, file_.get()) == block_size_,
                "tier read failed");
  }

  FilePtr file_;
  std::size_t capacity_;
  std::size_t block_size_;
  FlatMap<BlockId, std::size_t> slots_;
  std::vector<std::size_t> free_slots_;
  std::size_t next_slot_ = 0;
};

class FileOrigin final : public Origin {
 public:
  FileOrigin(const std::string& path, std::size_t block_size)
      : file_(open_rw(path)), block_size_(block_size) {}

  void read(BlockId block, std::span<std::byte> out) override {
    ULC_REQUIRE(out.size() >= block_size_, "read buffer too small");
    const long off = static_cast<long>(block * block_size_);
    if (std::fseek(file_.get(), 0, SEEK_END) != 0 ||
        std::ftell(file_.get()) < off + static_cast<long>(block_size_)) {
      std::memset(out.data(), 0, block_size_);  // beyond EOF: zeroes
      return;
    }
    ULC_REQUIRE(std::fseek(file_.get(), off, SEEK_SET) == 0, "origin seek failed");
    ULC_REQUIRE(std::fread(out.data(), 1, block_size_, file_.get()) == block_size_,
                "origin read failed");
  }

  void write(BlockId block, std::span<const std::byte> data) override {
    ULC_REQUIRE(data.size() >= block_size_, "write buffer too small");
    const long off = static_cast<long>(block * block_size_);
    ULC_REQUIRE(std::fseek(file_.get(), off, SEEK_SET) == 0, "origin seek failed");
    ULC_REQUIRE(std::fwrite(data.data(), 1, block_size_, file_.get()) == block_size_,
                "origin write failed");
  }

 private:
  FilePtr file_;
  std::size_t block_size_;
};

}  // namespace

std::unique_ptr<NearTier> make_memory_near_tier(std::size_t capacity_blocks,
                                                std::size_t block_size) {
  return std::make_unique<MemoryNearTier>(capacity_blocks, block_size);
}

std::unique_ptr<Origin> make_memory_origin(std::size_t block_size) {
  return std::make_unique<MemoryOrigin>(block_size);
}

std::unique_ptr<NearTier> make_file_near_tier(const std::string& path,
                                              std::size_t capacity_blocks,
                                              std::size_t block_size) {
  return std::make_unique<FileNearTier>(path, capacity_blocks, block_size);
}

std::unique_ptr<Origin> make_file_origin(const std::string& path,
                                         std::size_t block_size) {
  return std::make_unique<FileOrigin>(path, block_size);
}

}  // namespace ulc
