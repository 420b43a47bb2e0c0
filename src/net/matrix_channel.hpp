#pragma once
// Sending dense matrix blocks over MiniMPI — the data plane of the hybrid
// designs (column/row stripes of C and D, opMM partial results, D_tt /
// D_qt blocks).
//
// Wire format: two uint64 dimensions followed by row-major doubles. Strided
// views are packed densely, once: the packed Payload can go to any number of
// destinations, and receivers read the elements in place (PackedMatrix).
//
// A shape-only view (null data, as a cost-only run's blocks are) packs its
// header alone into a payload that still travels as the whole matrix, and
// decodes back to a shape-only view.

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/span2d.hpp"
#include "net/minimpi.hpp"

namespace rcs::net {

/// Bytes of the matrix header: the two dimensions.
inline constexpr std::uint64_t kMatrixHeaderBytes = 2 * sizeof(std::uint64_t);

/// Number of payload bytes a rows x cols matrix occupies on the wire.
inline std::uint64_t matrix_wire_bytes(std::uint64_t rows, std::uint64_t cols) {
  return kMatrixHeaderBytes + rows * cols * sizeof(double);
}

/// A rows x cols matrix built straight in its wire form: `fill` receives
/// the payload's elements as a contiguous view and writes every one, before
/// any other handle to the buffer exists. With `shape_only` (a cost-only
/// run's message) the payload holds its header alone and `fill` receives a
/// shape-only view.
template <typename Fill>
Payload build_matrix(std::uint64_t rows, std::uint64_t cols, bool shape_only,
                     Fill&& fill) {
  const std::uint64_t bytes = matrix_wire_bytes(rows, cols);
  return Payload::build(bytes, shape_only ? kMatrixHeaderBytes : bytes,
                        [&](std::byte* buf) {
    std::memcpy(buf, &rows, sizeof(rows));
    std::memcpy(buf + sizeof(rows), &cols, sizeof(cols));
    // The buffer is a double array, so the elements after the 16-byte
    // header are aligned doubles.
    double* elems = shape_only ? nullptr
                               : reinterpret_cast<double*>(
                                     buf + kMatrixHeaderBytes);
    fill(Span2D<double>(elems, rows, cols));
  });
}

/// Pack `m` (possibly a strided view) into its wire form. Pack a block once
/// and send the payload to every rank that needs it.
inline Payload pack_matrix(Span2D<const double> m) {
  return build_matrix(m.rows(), m.cols(), m.data() == nullptr,
                      [&](Span2D<double> out) {
    // A zero-width share (a worker owning no columns) has nothing to copy,
    // and its row pointers may be null.
    if (out.data() == nullptr || out.empty()) return;
    for (std::size_t r = 0; r < out.rows(); ++r) {
      std::memcpy(out.row(r), m.row(r), out.cols() * sizeof(double));
    }
  });
}

/// A matrix read in place from its wire form: the payload plus a read-only
/// view of its elements. The view, and every block taken from it, is valid
/// as long as this PackedMatrix (or a copy, which shares the payload) lives.
class PackedMatrix {
 public:
  PackedMatrix() = default;

  /// Decode `payload`, checking its header against its size.
  explicit PackedMatrix(Payload payload) : payload_(std::move(payload)) {
    RCS_CHECK_MSG(payload_.stored() >= kMatrixHeaderBytes,
                  "matrix message too short");
    std::uint64_t rows = 0, cols = 0;
    std::memcpy(&rows, payload_.data(), sizeof(rows));
    std::memcpy(&cols, payload_.data() + sizeof(rows), sizeof(cols));
    RCS_CHECK_MSG(payload_.size() == matrix_wire_bytes(rows, cols),
                  "matrix message size mismatch");
    // Payload buffers are double arrays, so the elements after the 16-byte
    // header are aligned doubles. A header-only payload reads back as a
    // shape-only view.
    const bool shape_only = payload_.stored() < payload_.size();
    view_ = Span2D<const double>(
        shape_only ? nullptr
                   : reinterpret_cast<const double*>(payload_.data() +
                                                     kMatrixHeaderBytes),
        rows, cols);
  }

  std::size_t rows() const { return view_.rows(); }
  std::size_t cols() const { return view_.cols(); }
  Span2D<const double> view() const { return view_; }
  Span2D<const double> block(std::size_t r0, std::size_t c0, std::size_t nr,
                             std::size_t nc) const {
    return view_.block(r0, c0, nr, nc);
  }
  const Payload& payload() const { return payload_; }

 private:
  Payload payload_;
  Span2D<const double> view_;
};

/// Send the contents of `m` (possibly a strided view) to `dst`, charging
/// the sending CPU for the serialization (§4.3).
inline void send_matrix(Comm& comm, int dst, int tag,
                        Span2D<const double> m) {
  comm.send(dst, tag, pack_matrix(m));
}

/// Blocking receive of a matrix from `src` with `tag`, read in place.
/// `phase` names the receive's trace event (see Comm::recv).
inline PackedMatrix recv_matrix(Comm& comm, int src, int tag,
                                const char* phase = nullptr) {
  return PackedMatrix(comm.recv(src, tag, phase).payload);
}

/// Deadline-bounded blocking matrix receive: the matrix when it arrives in
/// time, otherwise sets *timed_out and returns an empty PackedMatrix (the
/// late message, if any, is drained — see Comm::recv_deadline).
inline PackedMatrix recv_matrix_deadline(Comm& comm, int src, int tag,
                                         sim::SimTime timeout_s,
                                         bool* timed_out,
                                         const char* phase = nullptr) {
  Message msg = comm.recv_deadline(src, tag, timeout_s, timed_out, phase);
  if (timed_out != nullptr && *timed_out) return {};
  return PackedMatrix(std::move(msg.payload));
}

}  // namespace rcs::net
