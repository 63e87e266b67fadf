#include "device/sram.hpp"

#include <stdexcept>
namespace h3dfact::device {

SramBuffer::SramBuffer(const SramParams& params) : params_(params) {
  if (params.words == 0 || params.word_bits == 0) {
    throw std::invalid_argument("SRAM dimensions must be non-zero");
  }
}

void SramBuffer::allocate(std::size_t bits) {
  if (bits > free_bits()) {
    throw std::overflow_error("SRAM buffer overflow: batch exceeds capacity");
  }
  used_bits_ += bits;
}

void SramBuffer::release(std::size_t bits) {
  if (bits > used_bits_) {
    throw std::underflow_error("SRAM buffer release exceeds allocation");
  }
  used_bits_ -= bits;
}

}  // namespace h3dfact::device
