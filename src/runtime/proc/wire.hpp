// Length-prefixed framed messages for the multi-process sweep backend and
// the checkpoint journal — the nn/serialize checkpoint discipline (magic +
// FNV-1a checksum) extended to streams.
//
// Frame layout (native byte order; frames never cross machines — they cross
// a pipe between a forked worker and its parent, or a restart of the same
// binary on the same host):
//   magic   u32  0x47465731 ("GFW1")
//   type    u8   caller-defined message tag (core/sweep_proc.hpp)
//   len     u32  payload byte count
//   crc     u64  FNV-1a over the payload bytes
//   payload u8[len]
//
// Two transports share the format: fd-based blocking I/O (worker pipes) and
// in-memory parsing (journal files read as one buffer, so a kill mid-append
// degrades to a cleanly detectable truncated tail instead of a corrupt
// file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace groupfel::runtime::proc {

inline constexpr std::uint32_t kFrameMagic = 0x47465731u;  // "GFW1"
/// Frame overhead in bytes: magic + type + len + crc.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4 + 8;
/// Refusal threshold for a single payload — a corrupt length field must not
/// turn into a multi-gigabyte allocation. Generous: the largest real frame
/// is a SweepCellResult with param history (tens of MB at bench scale).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/// FNV-1a over arbitrary bytes — the same hash nn/serialize uses for model
/// checkpoints (nn::fnv1a delegates here so the two stay one function).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::byte> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct Frame {
  std::uint8_t type = 0;
  std::vector<std::byte> payload;
};

/// Serializes one frame (header + payload) into a contiguous buffer —
/// journal appends write this with ordinary stream I/O.
[[nodiscard]] std::vector<std::byte> encode_frame(
    std::uint8_t type, std::span<const std::byte> payload);

enum class ParseStatus {
  kOk,        ///< frame decoded; offset advanced past it
  kNeedMore,  ///< buffer ends mid-frame (truncated tail)
  kBadMagic,  ///< bytes at offset are not a frame
  kBadCrc,    ///< payload checksum mismatch
};

/// Decodes the frame starting at `offset` in `buf`. On kOk, `offset` is
/// advanced past the frame and `out` holds type + payload; on any other
/// status `offset` and `out` are untouched.
[[nodiscard]] ParseStatus parse_frame(std::span<const std::byte> buf,
                                      std::size_t& offset, Frame& out);

enum class ReadStatus {
  kOk,
  kEof,        ///< clean EOF before any header byte
  kTruncated,  ///< EOF mid-frame (peer died while writing)
  kBadMagic,
  kBadCrc,
};

[[nodiscard]] const char* to_string(ReadStatus status) noexcept;

/// Blocking framed read from a pipe/file descriptor. Loops over short reads
/// and EINTR; throws std::runtime_error on a hard read error.
[[nodiscard]] ReadStatus read_frame_fd(int fd, Frame& out);

/// Blocking framed write. Loops over short writes and EINTR; throws
/// std::system_error on a hard write error (EPIPE surfaces here when the
/// peer died and SIGPIPE is suppressed — see proc::ScopedSigpipeIgnore), and
/// encode_frame()'s std::runtime_error for an oversized payload.
void write_frame_fd(int fd, std::uint8_t type, std::span<const std::byte> payload);

}  // namespace groupfel::runtime::proc
