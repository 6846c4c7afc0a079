#ifndef TPCDS_DSGEN_PARALLEL_H_
#define TPCDS_DSGEN_PARALLEL_H_

#include <string>

#include "dsgen/options.h"
#include "util/flatfile.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace tpcds {

/// Generates `table` in `num_chunks` chunks, run by the calling thread and
/// `pool`'s workers, and streams the chunks into `sink` in chunk order.
/// Because every unit is independently seeded (see ColumnStream), the
/// output is bit-identical to a serial run — the parallel-generation
/// design of the official tooling (paper ref [11], MUDD). Chunk results
/// are buffered in memory; callers size num_chunks so one chunk fits
/// comfortably.
Status GenerateTableParallel(const std::string& table,
                             const GeneratorOptions& options,
                             int num_chunks, ThreadPool* pool,
                             RowSink* sink);

}  // namespace tpcds

#endif  // TPCDS_DSGEN_PARALLEL_H_
