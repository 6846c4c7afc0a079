#include "dsgen/parallel.h"

#include <memory>
#include <vector>

#include "dsgen/generator.h"

namespace tpcds {

Status GenerateTableParallel(const std::string& table,
                             const GeneratorOptions& options,
                             int num_chunks, ThreadPool* pool,
                             RowSink* sink) {
  if (num_chunks < 1) {
    return Status::InvalidArgument("num_chunks must be >= 1");
  }
  std::vector<MemoryRowSink> buffers(static_cast<size_t>(num_chunks));
  std::vector<Status> statuses(static_cast<size_t>(num_chunks));
  pool->ParallelFor(buffers.size(), pool->num_threads(), [&](size_t i) {
    GeneratorOptions chunk_options = options;
    chunk_options.chunk = static_cast<int>(i) + 1;
    chunk_options.num_chunks = num_chunks;
    Result<std::unique_ptr<TableGenerator>> gen =
        MakeGenerator(table, chunk_options);
    statuses[i] = gen.ok() ? (*gen)->Generate(&buffers[i]) : gen.status();
  });
  for (const Status& st : statuses) {
    TPCDS_RETURN_NOT_OK(st);
  }
  // Stream chunks to the sink in order: concatenation == serial run.
  for (MemoryRowSink& buffer : buffers) {
    for (const auto& row : buffer.rows()) {
      TPCDS_RETURN_NOT_OK(sink->Append(row));
    }
  }
  return Status::OK();
}

}  // namespace tpcds
