#include "runtime/proc/wire.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

namespace groupfel::runtime::proc {

namespace {

struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint8_t type = 0;
  std::uint32_t len = 0;
  std::uint64_t crc = 0;
};

void pack_header(const FrameHeader& h, std::byte* out) {
  std::memcpy(out, &h.magic, 4);
  std::memcpy(out + 4, &h.type, 1);
  std::memcpy(out + 5, &h.len, 4);
  std::memcpy(out + 9, &h.crc, 8);
}

FrameHeader unpack_header(const std::byte* in) {
  FrameHeader h;
  std::memcpy(&h.magic, in, 4);
  std::memcpy(&h.type, in + 4, 1);
  std::memcpy(&h.len, in + 5, 4);
  std::memcpy(&h.crc, in + 9, 8);
  return h;
}

/// Reads exactly `n` bytes. Returns the byte count actually read (< n only
/// at EOF); throws on a hard error.
std::size_t read_exact(int fd, std::byte* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
    } else if (r == 0) {
      break;  // EOF
    } else if (errno != EINTR) {
      throw std::runtime_error(std::string("proc::read_frame_fd: read: ") +
                               std::strerror(errno));
    }
  }
  return got;
}

}  // namespace

std::vector<std::byte> encode_frame(std::uint8_t type,
                                    std::span<const std::byte> payload) {
  if (payload.size() > kMaxFramePayload)
    throw std::runtime_error("proc::encode_frame: payload exceeds frame limit");
  FrameHeader h;
  h.magic = kFrameMagic;
  h.type = type;
  h.len = static_cast<std::uint32_t>(payload.size());
  h.crc = fnv1a(payload);

  std::vector<std::byte> out(kFrameHeaderBytes + payload.size());
  pack_header(h, out.data());
  std::memcpy(out.data() + kFrameHeaderBytes, payload.data(), payload.size());
  return out;
}

ParseStatus parse_frame(std::span<const std::byte> buf, std::size_t& offset,
                        Frame& out) {
  if (offset > buf.size()) return ParseStatus::kNeedMore;
  const std::span<const std::byte> rest = buf.subspan(offset);
  if (rest.size() < kFrameHeaderBytes) return ParseStatus::kNeedMore;
  const FrameHeader h = unpack_header(rest.data());
  if (h.magic != kFrameMagic) return ParseStatus::kBadMagic;
  if (h.len > kMaxFramePayload) return ParseStatus::kBadMagic;
  if (rest.size() - kFrameHeaderBytes < h.len) return ParseStatus::kNeedMore;
  const std::span<const std::byte> payload =
      rest.subspan(kFrameHeaderBytes, h.len);
  if (fnv1a(payload) != h.crc) return ParseStatus::kBadCrc;
  out.type = h.type;
  out.payload.assign(payload.begin(), payload.end());
  offset += kFrameHeaderBytes + h.len;
  return ParseStatus::kOk;
}

const char* to_string(ReadStatus status) noexcept {
  switch (status) {
    case ReadStatus::kOk:
      return "ok";
    case ReadStatus::kEof:
      return "eof";
    case ReadStatus::kTruncated:
      return "truncated frame";
    case ReadStatus::kBadMagic:
      return "bad frame magic";
    case ReadStatus::kBadCrc:
      return "frame checksum mismatch";
  }
  return "unknown";
}

ReadStatus read_frame_fd(int fd, Frame& out) {
  std::byte header[kFrameHeaderBytes];
  const std::size_t got = read_exact(fd, header, sizeof(header));
  if (got == 0) return ReadStatus::kEof;
  if (got < sizeof(header)) return ReadStatus::kTruncated;
  const FrameHeader h = unpack_header(header);
  if (h.magic != kFrameMagic || h.len > kMaxFramePayload)
    return ReadStatus::kBadMagic;
  out.type = h.type;
  out.payload.resize(h.len);
  if (read_exact(fd, out.payload.data(), h.len) < h.len)
    return ReadStatus::kTruncated;
  if (fnv1a(out.payload) != h.crc) return ReadStatus::kBadCrc;
  return ReadStatus::kOk;
}

void write_frame_fd(int fd, std::uint8_t type,
                    std::span<const std::byte> payload) {
  const std::vector<std::byte> frame = encode_frame(type, payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w = ::write(fd, frame.data() + sent, frame.size() - sent);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
    } else if (w < 0 && errno != EINTR) {
      throw std::system_error(errno, std::generic_category(),
                              "proc::write_frame_fd: write");
    }
  }
}

}  // namespace groupfel::runtime::proc
