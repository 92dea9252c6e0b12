// drop_link_table.hpp — per-packet link lists in one flat array.
//
// The ground truth of a synthetic trace names, for every packet, the links
// that dropped it. Most packets have none and the rest a few, so the table
// keeps one offset per packet into one array of links instead of a vector
// per packet: packet i's links are links_[offsets_[i], offsets_[i+1]).
// Packets are appended in seq order; a table with no packets means "no
// ground truth".
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/ids.hpp"
#include "util/check.hpp"

namespace cesrm::trace {

class DropLinkTable {
 public:
  /// Sizes the arrays for `packets` packets holding `links` links in all.
  void reserve(std::size_t packets, std::size_t links) {
    offsets_.reserve(packets + 1);
    links_.reserve(links);
  }
  /// Adds `link` to the packet being built (seq size()).
  void add_link(net::LinkId link) { links_.push_back(link); }
  /// Closes the packet being built; the next add_link starts packet
  /// size().
  void end_packet() {
    CESRM_CHECK(links_.size() <= std::numeric_limits<std::uint32_t>::max());
    offsets_.push_back(static_cast<std::uint32_t>(links_.size()));
  }

  /// Number of closed packets.
  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// Links of packet `seq`, in the order they were added.
  std::span<const net::LinkId> operator[](std::size_t seq) const {
    CESRM_DCHECK(seq < size());
    return std::span<const net::LinkId>(links_).subspan(
        offsets_[seq], offsets_[seq + 1] - offsets_[seq]);
  }
  /// operator[] with the range checked in every build.
  std::span<const net::LinkId> at(std::size_t seq) const {
    CESRM_CHECK(seq < size());
    return (*this)[seq];
  }

 private:
  std::vector<std::uint32_t> offsets_{0};
  std::vector<net::LinkId> links_;
};

}  // namespace cesrm::trace
