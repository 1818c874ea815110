#include "mem/banked_smem.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/error.hpp"

namespace tc::mem {

SmemAccessCost smem_access_cost(std::span<const std::uint32_t> addrs,
                                std::span<const bool> active, sass::MemWidth width,
                                bool is_store) {
  TC_CHECK(addrs.size() == 32 && active.size() == 32, "warp access needs 32 lanes");
  const int bytes = sass::width_bytes(width);
  const int lanes_per_phase = 128 / bytes;  // 32, 16 or 8
  const int num_phases = 32 / lanes_per_phase;

  SmemAccessCost cost;
  cost.phases = num_phases;

  constexpr int kPhaseWords = 128 / kBankWidthBytes;  // one phase moves 128 B
  for (int phase = 0; phase < num_phases; ++phase) {
    // Each lane in the phase touches `bytes/4` consecutive 4-byte words. A
    // bank serializes its distinct words; loads of one word broadcast. A word
    // determines its bank, so one duplicate check over the phase's distinct
    // words is the per-bank check, and only a bank already hit can repeat.
    std::array<std::uint32_t, kPhaseWords> words{};
    std::array<int, kNumBanks> per_bank{};
    int num_words = 0;
    int ways = 0;
    for (int l = 0; l < lanes_per_phase; ++l) {
      const int lane = phase * lanes_per_phase + l;
      if (!active[static_cast<std::size_t>(lane)]) continue;
      const std::uint32_t base = addrs[static_cast<std::size_t>(lane)];
      TC_CHECK(base % static_cast<std::uint32_t>(bytes) == 0,
               "misaligned shared memory access");
      for (int wword = 0; wword < bytes / kBankWidthBytes; ++wword) {
        const std::uint32_t word_addr = base / kBankWidthBytes + static_cast<std::uint32_t>(wword);
        int& hits = per_bank[word_addr % kNumBanks];
        if (!is_store) {
          const auto end = words.begin() + num_words;
          if (hits > 0 && std::find(words.begin(), end, word_addr) != end) continue;
          words[static_cast<std::size_t>(num_words++)] = word_addr;
        }
        ways = std::max(ways, ++hits);
      }
    }
    cost.beats += std::max(ways, 1);  // an all-off phase still occupies the pipe
  }
  return cost;
}

SharedMemory::SharedMemory(std::uint32_t bytes) : data_(bytes) {}

void SharedMemory::read(std::uint32_t addr, std::span<std::uint8_t> out) const {
  TC_CHECK(static_cast<std::size_t>(addr) + out.size() <= data_.size(),
           "shared memory read out of range: addr=" + std::to_string(addr) +
               " size=" + std::to_string(out.size()) + " smem=" + std::to_string(data_.size()));
  std::memcpy(out.data(), data_.data() + addr, out.size());
}

void SharedMemory::write(std::uint32_t addr, std::span<const std::uint8_t> in) {
  TC_CHECK(static_cast<std::size_t>(addr) + in.size() <= data_.size(),
           "shared memory write out of range: addr=" + std::to_string(addr) +
               " size=" + std::to_string(in.size()) + " smem=" + std::to_string(data_.size()));
  std::memcpy(data_.data() + addr, in.data(), in.size());
}

std::uint32_t SharedMemory::read_u32(std::uint32_t addr) const {
  std::uint32_t v = 0;
  read(addr, std::span(reinterpret_cast<std::uint8_t*>(&v), 4));
  return v;
}

void SharedMemory::write_u32(std::uint32_t addr, std::uint32_t value) {
  write(addr, std::span(reinterpret_cast<const std::uint8_t*>(&value), 4));
}

void SharedMemory::clear() { std::fill(data_.begin(), data_.end(), std::uint8_t{0}); }

}  // namespace tc::mem
