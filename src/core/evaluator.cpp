#include "core/evaluator.hpp"

#include <numeric>

#include "runtime/thread_pool.hpp"

namespace groupfel::core {
namespace {

struct BatchStat {
  std::size_t correct = 0;
  double loss_sum = 0.0;
};

/// Per-thread eval scratch: index list, gathered batch, and loss result are
/// reused across batches, chunks, and evaluate() calls, so steady-state
/// evaluation performs zero tensor constructions.
struct EvalScratch {
  std::vector<std::size_t> idx;
  data::DataSet::Batch batch;
  nn::LossResult loss;
};

/// Forward + loss on one batch; pure w.r.t. the model parameters, so any
/// replica with identical parameters produces the identical stat.
BatchStat eval_batch(nn::Model& model, const data::DataSet& test,
                     std::size_t start, std::size_t end) {
  thread_local EvalScratch scratch;
  scratch.idx.resize(end - start);
  std::iota(scratch.idx.begin(), scratch.idx.end(), start);
  test.gather_into(scratch.idx, scratch.batch);
  const nn::Tensor& logits =
      model.forward(scratch.batch.features, /*train=*/false);
  nn::softmax_cross_entropy_into(logits, scratch.batch.labels, scratch.loss);
  return {scratch.loss.correct,
          scratch.loss.loss * static_cast<double>(end - start)};
}

}  // namespace

EvalResult evaluate(nn::Model& model, const data::DataSet& test,
                    std::size_t batch_size, runtime::ThreadPool* pool,
                    runtime::ModelReplicaCache<nn::Model>* replicas) {
  EvalResult res;
  if (test.size() == 0) return res;
  if (batch_size == 0) batch_size = test.size();
  const std::size_t num_batches =
      (test.size() + batch_size - 1) / batch_size;
  std::vector<BatchStat> stats(num_batches);

  // Test-set inference parallelizes over batches the same way client
  // training parallelizes over clients. Each chunk works on a private model
  // replica (layers cache activations during forward, so sharing one model
  // across threads would race) and writes only its own batches' slots; the
  // reduction below runs in fixed batch order, so the result is
  // bit-identical to the serial path for any pool size.
  if (pool == nullptr) pool = &runtime::ThreadPool::global();
  const std::size_t chunks = std::min(pool->size() + 1, num_batches);
  if (chunks <= 1) {
    for (std::size_t bi = 0; bi < num_batches; ++bi) {
      const std::size_t start = bi * batch_size;
      stats[bi] = eval_batch(model, test, start,
                             std::min(test.size(), start + batch_size));
    }
  } else {
    std::vector<float> flat;
    if (replicas != nullptr) flat = model.flat_parameters();
    pool->parallel_for(chunks, [&](std::size_t c) {
      // Each chunk needs a private model (forward caches activations);
      // with a cache we reset this thread's persistent replica instead of
      // constructing a throwaway clone.
      nn::Model owned;
      nn::Model* replica;
      if (replicas != nullptr) {
        replica = &replicas->local();
        replica->set_flat_parameters(flat);
      } else {
        owned = model.clone();
        replica = &owned;
      }
      for (std::size_t bi = c; bi < num_batches; bi += chunks) {
        const std::size_t start = bi * batch_size;
        stats[bi] = eval_batch(*replica, test, start,
                               std::min(test.size(), start + batch_size));
      }
    });
  }

  std::size_t correct = 0;
  double loss_sum = 0.0;
  for (const auto& s : stats) {
    correct += s.correct;
    loss_sum += s.loss_sum;
  }
  res.accuracy = static_cast<double>(correct) / static_cast<double>(test.size());
  res.loss = loss_sum / static_cast<double>(test.size());
  return res;
}

}  // namespace groupfel::core
