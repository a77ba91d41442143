// Relation: a row-store instance of a Schema. Values are stored as
// strings; numeric attributes are parsed on demand by the metric layer.

#ifndef DD_DATA_RELATION_H_
#define DD_DATA_RELATION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/schema.h"

namespace dd {

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_attributes() const { return schema_.num_attributes(); }

  // Appends a row; fails with InvalidArgument on arity mismatch.
  Status AddRow(std::vector<std::string> values);

  const std::vector<std::string>& row(std::size_t r) const { return rows_[r]; }
  const std::string& at(std::size_t r, std::size_t c) const {
    return rows_[r][c];
  }
  std::string& at(std::size_t r, std::size_t c) { return rows_[r][c]; }

  // Value of attribute `name` in row `r`, or NotFound.
  Result<std::string> Value(std::size_t r, std::string_view name) const;

  // New relation containing rows [begin, end).
  Result<Relation> Slice(std::size_t begin, std::size_t end) const;

  void Reserve(std::size_t rows) { rows_.reserve(rows); }

  // Frees the values of row `r`, which then holds none. For stores that
  // keep row indices stable after retiring a row (incr/tuple_store.h).
  void ReleaseRow(std::size_t r) { std::vector<std::string>().swap(rows_[r]); }

 private:
  Schema schema_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dd

#endif  // DD_DATA_RELATION_H_
