#pragma once
// Sending dense matrix blocks over MiniMPI — the data plane of the hybrid
// designs (column/row stripes of C and D, opMM partial results, D_tt /
// D_qt blocks).
//
// Wire format: two uint64 dimensions followed by row-major doubles. Strided
// views are packed densely on send.

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/span2d.hpp"
#include "linalg/matrix.hpp"
#include "net/minimpi.hpp"

namespace rcs::net {

/// Number of payload bytes a rows x cols matrix occupies on the wire.
inline std::uint64_t matrix_wire_bytes(std::uint64_t rows, std::uint64_t cols) {
  return 2 * sizeof(std::uint64_t) + rows * cols * sizeof(double);
}

namespace detail {
inline std::vector<std::byte> pack_matrix(Span2D<const double> m) {
  const std::uint64_t rows = m.rows();
  const std::uint64_t cols = m.cols();
  std::vector<std::byte> buf(matrix_wire_bytes(rows, cols));
  std::memcpy(buf.data(), &rows, sizeof(rows));
  std::memcpy(buf.data() + sizeof(rows), &cols, sizeof(cols));
  std::byte* out = buf.data() + 2 * sizeof(std::uint64_t);
  // A zero-width share (a worker owning no columns) has nothing to copy,
  // and its row pointers may be null.
  for (std::uint64_t r = 0; cols > 0 && r < rows; ++r) {
    std::memcpy(out, m.row(r), cols * sizeof(double));
    out += cols * sizeof(double);
  }
  return buf;
}
}  // namespace detail

/// Send the contents of `m` (possibly a strided view) to `dst`, charging
/// the sending CPU for the serialization (§4.3).
inline void send_matrix(Comm& comm, int dst, int tag,
                        Span2D<const double> m) {
  const auto buf = detail::pack_matrix(m);
  comm.send_bytes(dst, tag, buf.data(), buf.size());
}

/// DMA-style matrix send: the transfer rides the sender's NIC timeline and
/// the CPU pays only setup latency (see Comm::isend_bytes).
inline void isend_matrix(Comm& comm, int dst, int tag,
                         Span2D<const double> m) {
  const auto buf = detail::pack_matrix(m);
  comm.isend_bytes(dst, tag, buf.data(), buf.size());
}

/// Decode a matrix from a received message.
inline linalg::Matrix decode_matrix(const Message& msg) {
  RCS_CHECK_MSG(msg.payload.size() >= 2 * sizeof(std::uint64_t),
                "matrix message too short");
  std::uint64_t rows = 0, cols = 0;
  std::memcpy(&rows, msg.payload.data(), sizeof(rows));
  std::memcpy(&cols, msg.payload.data() + sizeof(rows), sizeof(cols));
  RCS_CHECK_MSG(msg.payload.size() == matrix_wire_bytes(rows, cols),
                "matrix message size mismatch");
  linalg::Matrix m(rows, cols);
  if (m.size() > 0) {
    std::memcpy(m.data(), msg.payload.data() + 2 * sizeof(std::uint64_t),
                m.size() * sizeof(double));
  }
  return m;
}

/// Blocking receive of a matrix from `src` with `tag`. `overlap_phase`
/// labels the transfer for Comm::overlap_stats (see minimpi.hpp).
inline linalg::Matrix recv_matrix(Comm& comm, int src, int tag,
                                  const char* overlap_phase = nullptr) {
  return decode_matrix(comm.recv(src, tag, overlap_phase));
}

/// Deadline-bounded blocking matrix receive: decodes the message when it
/// arrives in time, otherwise sets *timed_out and returns an empty Matrix
/// (the late message, if any, is drained — see Comm::recv_deadline).
inline linalg::Matrix recv_matrix_deadline(Comm& comm, int src, int tag,
                                           sim::SimTime timeout_s,
                                           bool* timed_out,
                                           const char* overlap_phase = nullptr) {
  const Message msg =
      comm.recv_deadline(src, tag, timeout_s, timed_out, overlap_phase);
  if (timed_out != nullptr && *timed_out) return {};
  return decode_matrix(msg);
}

/// Broadcast a matrix from `root`; every rank returns the matrix.
inline linalg::Matrix bcast_matrix(Comm& comm, int root, int tag,
                                   linalg::Matrix m) {
  if (comm.rank() == root) {
    for (int r = 0; r < comm.size(); ++r) {
      if (r == root) continue;
      send_matrix(comm, r, tag, m.view());
    }
    return m;
  }
  return recv_matrix(comm, root, tag);
}

}  // namespace rcs::net
