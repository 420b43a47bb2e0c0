#pragma once
// Non-owning 2-D view over row-major storage with an arbitrary leading
// dimension (stride), in the spirit of std::mdspan (not yet in libstdc++ 12).

#include <cstddef>

#include "common/error.hpp"

namespace rcs {

/// Non-owning view of a `rows x cols` block inside a row-major array whose
/// rows are `stride` elements apart. Cheap to copy; never owns memory. A
/// view with null data is shape-only: it has rows and columns but no
/// elements, and its blocks are shape-only too.
template <typename T>
class Span2D {
 public:
  Span2D() = default;

  Span2D(T* data, std::size_t rows, std::size_t cols, std::size_t stride)
      : data_(data), rows_(rows), cols_(cols), stride_(stride) {
    RCS_DASSERT(stride >= cols || rows == 0);
  }

  /// Contiguous view: stride == cols.
  Span2D(T* data, std::size_t rows, std::size_t cols)
      : Span2D(data, rows, cols, cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t stride() const { return stride_; }
  T* data() const { return data_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  T& operator()(std::size_t r, std::size_t c) const {
    RCS_DASSERT(r < rows_ && c < cols_);
    return data_[r * stride_ + c];
  }

  /// Pointer to the start of row r.
  T* row(std::size_t r) const {
    RCS_DASSERT(r < rows_);
    return data_ + r * stride_;
  }

  /// Sub-block view [r0, r0+nr) x [c0, c0+nc).
  Span2D block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const {
    RCS_DASSERT(r0 + nr <= rows_ && c0 + nc <= cols_);
    return Span2D(data_ == nullptr ? nullptr : data_ + r0 * stride_ + c0, nr,
                  nc, stride_);
  }

  /// Implicit widening to a const view.
  operator Span2D<const T>() const {
    return Span2D<const T>(data_, rows_, cols_, stride_);
  }

 private:
  T* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
};

}  // namespace rcs
