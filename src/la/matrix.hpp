// Column-major dense matrix.
//
// The storage convention follows LAPACK: element (i, j) lives at
// data[i + j * rows]. Column-major is the natural layout for this library
// because the dominant objects are tall-and-skinny blocks of vectors
// (n_d x n_eig) whose columns are grid functions; a column is then a
// contiguous span that the stencil and Hadamard kernels can stream.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace rsrpa::la {

using cplx = std::complex<double>;

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  T& operator()(std::size_t i, std::size_t j) {
    return data_[i + j * rows_];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    return data_[i + j * rows_];
  }

  /// Contiguous view of column j.
  [[nodiscard]] std::span<T> col(std::size_t j) {
    return {data_.data() + j * rows_, rows_};
  }
  [[nodiscard]] std::span<const T> col(std::size_t j) const {
    return {data_.data() + j * rows_, rows_};
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  void fill(T value) { data_.assign(data_.size(), value); }
  void zero() { fill(T{}); }

  /// Reshape without preserving contents.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  /// Copy of columns [j0, j0+ncols).
  [[nodiscard]] Matrix slice_cols(std::size_t j0, std::size_t ncols) const {
    RSRPA_REQUIRE(j0 + ncols <= cols_);
    Matrix out(rows_, ncols);
    for (std::size_t j = 0; j < ncols; ++j)
      for (std::size_t i = 0; i < rows_; ++i) out(i, j) = (*this)(i, j0 + j);
    return out;
  }

  /// Write `block` into columns [j0, j0+block.cols()).
  void set_cols(std::size_t j0, const Matrix& block) {
    RSRPA_REQUIRE(block.rows() == rows_ && j0 + block.cols() <= cols_);
    for (std::size_t j = 0; j < block.cols(); ++j)
      for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j0 + j) = block(i, j);
  }

  [[nodiscard]] Matrix transposed() const {
    Matrix out(cols_, rows_);
    for (std::size_t j = 0; j < cols_; ++j)
      for (std::size_t i = 0; i < rows_; ++i) out(j, i) = (*this)(i, j);
    return out;
  }

  [[nodiscard]] static Matrix identity(std::size_t n) {
    Matrix out(n, n);
    for (std::size_t i = 0; i < n; ++i) out(i, i) = T{1};
    return out;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Promote a real matrix to complex.
inline Matrix<cplx> to_complex(const Matrix<double>& a) {
  Matrix<cplx> out(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) out(i, j) = a(i, j);
  return out;
}

/// Extract the real part of a complex matrix.
inline Matrix<double> real_part(const Matrix<cplx>& a) {
  Matrix<double> out(a.rows(), a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t i = 0; i < a.rows(); ++i) out(i, j) = a(i, j).real();
  return out;
}

}  // namespace rsrpa::la
