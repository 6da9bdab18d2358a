/**
 * @file
 * The GOBO compressed-model container ("GOBC").
 *
 * This is the deployable artifact of the whole pipeline: every FC
 * weight matrix stored in the GOBO format (packed B-bit indexes, FP32
 * centroid table, FP32 outliers), the word embedding optionally
 * quantized the same way, and everything the paper leaves FP32 —
 * biases, layer norms, position embeddings, the task head — stored
 * raw. One reader checks every stored tensor and record against the
 * dims the config defines and yields the two halves: the FP32-resident
 * parameters and the packed FC records. Two loaders sit on it:
 *
 *  - loadCompressedModel decodes the records into a plain FP32
 *    BertModel, which is what makes GOBO "plug-in compatible with any
 *    execution engine": the loaded model runs through the unmodified
 *    FP32 engine.
 *  - loadPackedModel hands the records straight to a
 *    QuantizedBertModel: the packed engine serves exactly the layers
 *    in the file, with no quantize step and no FP32 FC tensor.
 *
 * The file size is the honest end-to-end measurement behind the
 * compression-ratio claims: compare it against the FP32 model written
 * by saveModel().
 */

#ifndef GOBO_CORE_CONTAINER_HH
#define GOBO_CORE_CONTAINER_HH

#include <iosfwd>
#include <string>

#include "core/qexec.hh"
#include "core/quantizer.hh"
#include "model/model.hh"

namespace gobo {

/**
 * Quantize `model`'s FC weights (and optionally the word embedding)
 * per `options` and write the compressed container. The model itself
 * is not modified. Returns the same accounting quantizeModelInPlace
 * produces.
 */
ModelQuantReport saveCompressedModel(std::ostream &os,
                                     const BertModel &model,
                                     const ModelQuantOptions &options);

/** File variant. Fatal if the file cannot be opened or written. */
ModelQuantReport saveCompressedModel(const std::string &path,
                                     const BertModel &model,
                                     const ModelQuantOptions &options);

/**
 * Load a container and decode it into an FP32 model. Fatal on
 * malformed input, including any tensor or record whose dims differ
 * from the ones its config defines.
 */
BertModel loadCompressedModel(std::istream &is);

/** File variant. Fatal if the file cannot be opened. */
BertModel loadCompressedModel(const std::string &path);

/** Load a container as a packed model serving its stored FC layers. */
QuantizedBertModel loadPackedModel(std::istream &is);

/** File variant. Fatal if the file cannot be opened. */
QuantizedBertModel loadPackedModel(const std::string &path);

} // namespace gobo

#endif // GOBO_CORE_CONTAINER_HH
