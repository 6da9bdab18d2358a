/**
 * @file
 * Binary serialization of FP32 models.
 *
 * A simple versioned container ("GOBM") holding the configuration and
 * every tensor of a BertModel. Used by the examples and integration
 * tests to demonstrate the generate -> save -> load -> quantize ->
 * infer pipeline, and as the uncompressed-size reference for on-disk
 * compression-ratio measurements.
 */

#ifndef GOBO_MODEL_SERIALIZE_HH
#define GOBO_MODEL_SERIALIZE_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "model/model.hh"
#include "tensor/tensor.hh"

namespace gobo {

/** Write one tensor (rank, dims, raw FP32 payload). */
void writeTensor(std::ostream &os, const Tensor &t);

/** Read one tensor written by writeTensor. Fatal on malformed input. */
Tensor readTensor(std::istream &is);

/**
 * Read one tensor into `p`'s slot. Fatal on malformed input or unless
 * it has the dims `p` expects.
 */
void readParam(std::istream &is, const ParamRef &p);

/**
 * Write the header GOBM and GOBC files share: magic, version, the
 * model's config and its head outputs.
 */
void writeModelHeader(std::ostream &os, std::uint32_t magic,
                      std::uint32_t version, const BertModel &model);

/**
 * Read a header writeModelHeader wrote, fatal unless magic and version
 * match or any dim is implausible. Returns BertModel::forLoading for
 * the stored config and head size, for the caller to fill.
 */
BertModel readModelHeader(std::istream &is, std::uint32_t magic,
                          std::uint32_t version);

/** Serialize a whole model to a stream. */
void saveModel(std::ostream &os, const BertModel &model);

/** Serialize a whole model to a file. Fatal if the file cannot open. */
void saveModel(const std::string &path, const BertModel &model);

/** Load a model written by saveModel. Fatal on malformed input. */
BertModel loadModel(std::istream &is);

/** Load a model from a file. Fatal if the file cannot open. */
BertModel loadModel(const std::string &path);

} // namespace gobo

#endif // GOBO_MODEL_SERIALIZE_HH
