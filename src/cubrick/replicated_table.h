// Replicated dimension tables and joins.
//
// "Most systems also provide ways to replicate (instead of horizontally
// partition) tables which are smaller and used more frequently between
// all cluster nodes, in order to speed up joins with larger distributed
// tables" (Section II-B); Cubrick's coordinator handles queries over
// joined tables (Section IV-C). A ReplicatedTable is a small key ->
// attributes mapping copied in full to every server of every region, so a
// partition-local scan can join against it with a plain array lookup — no
// network traffic on the join path.
//
// Joins are expressed on the Query (Query::joins): a fact dimension
// column is interpreted as a key into a replicated table, and the query
// can group by / filter on that table's attribute columns.

#ifndef SCALEWALL_CUBRICK_REPLICATED_TABLE_H_
#define SCALEWALL_CUBRICK_REPLICATED_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cubrick/schema.h"

namespace scalewall::cubrick {

// A key not present in the dimension table.
inline constexpr uint32_t kNoAttribute = static_cast<uint32_t>(-1);

// One dimension-table entry: the key plus one value per attribute.
struct DimensionEntry {
  uint32_t key = 0;
  std::vector<uint32_t> attributes;
};

class ReplicatedTable {
 public:
  // `attributes` declares the attribute columns (their cardinalities
  // bound the value domains). Keys live in [0, key_cardinality).
  ReplicatedTable(std::string name, uint32_t key_cardinality,
                  std::vector<Dimension> attributes);

  const std::string& name() const { return name_; }
  uint32_t key_cardinality() const { return key_cardinality_; }
  const std::vector<Dimension>& attributes() const { return attributes_; }
  int AttributeIndex(const std::string& attr_name) const;

  // Inserts or overwrites one entry.
  Status Set(const DimensionEntry& entry);

  // Attribute value for `key`, or kNoAttribute when the key is unset.
  uint32_t Attribute(uint32_t key, int attribute) const {
    if (key >= key_cardinality_ || attribute < 0 ||
        attribute >= static_cast<int>(columns_.size())) {
      return kNoAttribute;
    }
    return columns_[attribute][key];
  }

  // Raw attribute column (key_cardinality entries, kNoAttribute where
  // unset), or nullptr when `attribute` does not exist — the vectorized
  // probe kernels treat a null column as "no key matches", mirroring
  // Attribute()'s kNoAttribute for bad attribute indices.
  const uint32_t* column_data(int attribute) const {
    if (attribute < 0 || attribute >= static_cast<int>(columns_.size())) {
      return nullptr;
    }
    return columns_[attribute].data();
  }

  size_t num_entries() const { return num_entries_; }
  size_t MemoryFootprint() const {
    return columns_.size() * key_cardinality_ * sizeof(uint32_t);
  }

  // Freshness epoch of this table's *content*, the dimension analogue
  // of a partition epoch: stamped by the deployment after every batch
  // mutation (create/load/drop) with one NextPartitionEpoch() draw so
  // every replica of a dim carries the same value, and carried by
  // copies (snapshots ship it over the wire). Set() deliberately does
  // NOT bump it — per-replica bumps would draw divergent values from
  // the process-global counter. Result caches validate join entries
  // against it; 0 = never stamped (directly constructed tables), which
  // still validates correctly as a plain value.
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

  // Wire-decode restore: replaces all columns (each key_cardinality
  // long, kNoAttribute where unset) and the entry count wholesale. Every
  // set value must lie in its attribute's domain, as Set() enforces: the
  // vectorized scan sizes group-join slots by that cardinality.
  Status RestoreColumns(std::vector<std::vector<uint32_t>> columns,
                        size_t num_entries);

 private:
  std::string name_;
  uint32_t key_cardinality_;
  std::vector<Dimension> attributes_;
  // Column-major: columns_[attr][key]; kNoAttribute where unset.
  std::vector<std::vector<uint32_t>> columns_;
  size_t num_entries_ = 0;
  uint64_t epoch_ = 0;
};

// Resolved join inputs for one query execution: tables_[i] backs
// query.joins[i]. Built by the executing server from its local replicas.
struct JoinContext {
  std::vector<const ReplicatedTable*> tables;
};

}  // namespace scalewall::cubrick

#endif  // SCALEWALL_CUBRICK_REPLICATED_TABLE_H_
