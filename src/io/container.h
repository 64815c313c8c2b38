// Versioned binary checkpoint container.
//
// Layout (all integers host-endian, fixed width):
//
//   offset 0   magic  "EDSRBOX1"                      (8 bytes)
//   offset 8   u32    container format version (= 1)
//   offset 12  u32    section count
//   offset 16  u64    section-table offset
//   offset 24  section payloads, concatenated
//   table      per section:
//                u64 name length | name bytes |
//                u64 payload offset | u64 payload size | u32 CRC-32
//
// Guarantees:
//   * Writes are atomic: ContainerWriter writes "<path>.tmp" and
//     renames over the target only in Finish(), so a crash mid-write never
//     clobbers the previous checkpoint and readers never observe a partial
//     file under the final name.
//   * Reads never crash: every offset/length is bounds-checked against the
//     actual file size before use and each section's CRC-32 is verified on
//     access, so truncation and bit flips surface as util::Status errors.
//   * Versioned: readers reject unknown format versions up front; additive
//     evolution happens by adding sections (readers ignore unknown names).
#ifndef EDSR_SRC_IO_CONTAINER_H_
#define EDSR_SRC_IO_CONTAINER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/io/serialize.h"
#include "src/util/status.h"

namespace edsr::io {

inline constexpr char kContainerMagic[8] = {'E', 'D', 'S', 'R',
                                            'B', 'O', 'X', '1'};
inline constexpr uint32_t kContainerVersion = 1;

class ContainerWriter {
 public:
  // Sections are buffered in memory; nothing touches the filesystem until
  // Finish(). Duplicate names are a programmer error.
  explicit ContainerWriter(std::string path) : path_(std::move(path)) {}

  void AddSection(const std::string& name, std::vector<uint8_t> payload);
  // Convenience: closes over a BufferWriter payload.
  void AddSection(const std::string& name, BufferWriter* payload) {
    AddSection(name, payload->TakeBytes());
  }

  // Writes "<path>.tmp" (header, then each section's payload from its own
  // buffer, then the table, in one writev where the kernel allows; nothing
  // is copied into a whole-file buffer), then atomically renames it over
  // `path`. After Finish() the writer must not be reused.
  util::Status Finish();

 private:
  struct Section {
    std::string name;
    std::vector<uint8_t> payload;
  };
  std::string path_;
  std::vector<Section> sections_;
  bool finished_ = false;
};

class ContainerReader {
 public:
  // Reads and validates the whole file (magic, version, table bounds).
  // Section payload CRCs are verified on access in ReadSection.
  static util::Result<ContainerReader> Open(const std::string& path);

  // Shared-read mode for files another process may atomically replace while
  // we open them (the serving layer reading a checkpoint the trainer is
  // about to rename over). The whole file is slurped into a private copy, so
  // once Open succeeds the reader is immune to later replacement; if the
  // slurp itself raced a rename and captured a torn view, validation fails
  // with a clean Status and OpenShared retries once — the rename is atomic,
  // so the second read sees either the complete old or complete new file.
  // Never aborts on any file content.
  static util::Result<ContainerReader> OpenShared(const std::string& path);

  bool HasSection(const std::string& name) const;
  // CRC-verified payload copy; IoError on CRC mismatch, InvalidArgument on
  // an unknown section name.
  util::Status ReadSection(const std::string& name,
                           std::vector<uint8_t>* out) const;
  // All-or-nothing multi-section read: out->at(i) is the payload of
  // names[i]. Any missing name, truncated extent, or CRC mismatch (the
  // signatures of a mid-rename partial file) fails the whole call with a
  // clean error Status and leaves *out empty — callers never observe a mix
  // of sections from a half-validated container.
  util::Status ReadSections(const std::vector<std::string>& names,
                            std::vector<std::vector<uint8_t>>* out) const;
  std::vector<std::string> SectionNames() const;

 private:
  struct Section {
    std::string name;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
  };
  ContainerReader() = default;

  std::vector<uint8_t> file_;
  std::vector<Section> sections_;
};

}  // namespace edsr::io

#endif  // EDSR_SRC_IO_CONTAINER_H_
