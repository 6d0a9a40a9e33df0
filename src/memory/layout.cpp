#include "memory/layout.hpp"

namespace apcc::memory {

namespace {
std::uint64_t align4(std::uint64_t v) { return (v + 3) & ~std::uint64_t{3}; }
}  // namespace

void ImageFootprint::add_block(std::uint64_t compressed_size,
                               std::uint64_t original_size) {
  compressed_area_bytes += align4(compressed_size) + kIndexEntryBytes;
  original_bytes += original_size;
  all_decompressed_bytes += align4(original_size);
}

MemoryLayout::MemoryLayout(const ImageFootprint& image,
                           std::uint64_t decompressed_capacity,
                           FitPolicy fit)
    : compressed_area_bytes_(image.compressed_area_bytes),
      original_image_bytes_(image.original_bytes),
      // "Unbounded" still needs a finite region; the whole image
      // decompressed at once is the upper bound, padded for allocator
      // alignment.
      allocator_(decompressed_capacity == kUnbounded
                     ? image.all_decompressed_bytes + 4096
                     : decompressed_capacity,
                 fit) {
  peak_occupancy_ = occupancy_bytes();
  occupancy_series_.sample(0, static_cast<double>(peak_occupancy_));
}

std::optional<std::uint64_t> MemoryLayout::place_decompressed(
    std::uint64_t size, std::uint64_t now) {
  const auto address = allocator_.allocate(size);
  if (address) sample(now);
  return address;
}

void MemoryLayout::drop_decompressed(std::uint64_t address,
                                     std::uint64_t now) {
  allocator_.release(address);
  sample(now);
}

std::uint64_t MemoryLayout::occupancy_bytes() const {
  return compressed_area_bytes_ + allocator_.used_bytes();
}

void MemoryLayout::sample(std::uint64_t now) {
  const std::uint64_t occupancy = occupancy_bytes();
  peak_occupancy_ = std::max(peak_occupancy_, occupancy);
  occupancy_series_.sample(now, static_cast<double>(occupancy));
}

}  // namespace apcc::memory
