// Compressed-sparse linear algebra for large MNA systems.
//
// Wide coupled groups and 10k-sink clock trees blow past what the dense and
// banded LUs can carry: all-to-all coupling caps push the RCM bandwidth
// toward n (banded degenerates to dense O(n^2) per step), and a dense image
// of a 40k-unknown tree does not even fit in memory.  This header provides
// the third backend of the factor-once architecture:
//
//   * SparseMatrix — a CSC matrix with a *fixed* sparsity pattern chosen at
//     construction from the netlist (every position any stamp can touch).
//     Stamping is accumulate-by-position; the pattern never changes, so the
//     numeric values are one flat array that can be snapshotted and restored
//     at memcpy cost, exactly like the dense/banded static images.
//   * SparseLu — left-looking (Gilbert-Peierls) sparse LU with partial
//     pivoting split into analyze() (symbolic: fill-reducing column ordering
//     + workspace allocation, once per step size) and factor()/solve_into()
//     (numeric, per step).  L/U storage is grow-only, so refactors after the
//     first are allocation-free and solves always are.
//
// Determinism: the column ordering (minimum_degree_ordering), the DFS reach,
// and the pivot choice (max magnitude, diagonal preferred within a fixed
// threshold, ties broken by position order) depend only on the pattern and
// the values, never on platform or thread count — the cached and naive
// assembly paths therefore factor bitwise-identically.
#ifndef RLCEFF_UTIL_SPARSE_H
#define RLCEFF_UTIL_SPARSE_H

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/budget.h"

namespace rlceff::util {

// Square CSC matrix over a fixed pattern.  Positions passed to the
// constructor are (row, col) pairs; duplicates are merged.  add() on a
// position outside the pattern throws — the pattern is the contract that
// makes the static-image snapshot sound.
class SparseMatrix {
public:
  SparseMatrix() = default;
  SparseMatrix(std::size_t n, std::vector<std::pair<std::size_t, std::size_t>> positions);

  std::size_t size() const { return n_; }
  std::size_t nnz() const { return row_ind_.size(); }

  void set_zero();
  void add(std::size_t r, std::size_t c, double v) { values_[position(r, c)] += v; }
  double get(std::size_t r, std::size_t c) const;

  // Flat index of (r, c) within values(); throws when outside the pattern.
  // Restamping hot paths resolve positions once and then write through them.
  std::size_t position(std::size_t r, std::size_t c) const;

  // The numeric image: save/restore these to snapshot the static assembly.
  std::span<const double> values() const { return values_; }
  std::span<double> values() { return values_; }
  void copy_values_from(const SparseMatrix& other);

  // CSC internals for the factorization.
  const std::vector<std::size_t>& col_ptr() const { return col_ptr_; }
  const std::vector<std::size_t>& row_ind() const { return row_ind_; }

private:
  std::size_t n_ = 0;
  std::vector<std::size_t> col_ptr_;  // n + 1
  std::vector<std::size_t> row_ind_;  // nnz, sorted within each column
  std::vector<double> values_;        // nnz
};

// Sparse LU (PAQ = LU, partial pivoting with diagonal preference).
//
//   SparseLu lu;
//   lu.analyze(a);              // once per pattern / step size
//   loop {
//     ...restamp a...
//     lu.factor(a, tracker);    // per step-size change or Newton iteration
//     lu.solve_into(x);         // per step, allocation-free
//   }
class SparseLu {
public:
  // Symbolic analysis: computes the fill-reducing column ordering (greedy
  // minimum degree over the pattern graph) and sizes every workspace.
  void analyze(const SparseMatrix& a);

  bool analyzed() const { return n_ > 0; }

  // Numeric factorization over the analyzed pattern.  Throws
  // SingularMatrixError when no acceptable pivot exists in a column.  The
  // optional tracker is checkpointed every 64 columns so deadlines and
  // cancellation hold inside one large factor, not just between steps.
  void factor(const SparseMatrix& a, ExecTracker* budget = nullptr);

  // In-place solve A x = b: x holds b on entry, the solution on exit.
  // Allocates nothing.
  void solve_into(std::span<double> x, ExecTracker* budget = nullptr) const;

  // Blocked multi-RHS solve: `lanes` right-hand sides in an n x stride
  // row-major block (lane s of unknown i at x[i * stride + s]).  Every lane
  // runs exactly solve_into's operation sequence — including its skip of
  // zero-valued pivot entries, replicated per lane — so lane results are
  // bitwise-identical to independent single-RHS solves.  Grows the block
  // scratch on first use, allocation-free afterwards; no budget checkpoints
  // (the scenario-batching caller charges per-lane step budgets instead).
  void solve_block(std::span<double> x, std::size_t lanes, std::size_t stride) const;

private:
  std::size_t n_ = 0;
  std::vector<std::size_t> q_;     // column order: factor column k is A column q_[k]
  std::vector<std::size_t> pinv_;  // row i of A is pivot row pinv_[i]

  // L (unit lower, diagonal first per column) and U (diagonal last per
  // column), CSC in pivot-row indices.  Grow-only between factors.
  std::vector<std::size_t> lp_, li_, up_, ui_;
  std::vector<double> lx_, ux_;

  // Reusable factor/solve scratch.
  std::vector<double> x_;                  // scattered column accumulator
  std::vector<std::size_t> xi_;            // reach pattern (topological order)
  std::vector<std::size_t> mark_;          // DFS visit stamps
  std::vector<std::size_t> dfs_stack_, dfs_ptr_;
  mutable std::vector<double> work_;       // permuted rhs during solve
  mutable std::vector<double> work_block_;  // permuted rhs block (solve_block)
  std::size_t stamp_ = 0;
  bool factored_ = false;
};

}  // namespace rlceff::util

#endif  // RLCEFF_UTIL_SPARSE_H
