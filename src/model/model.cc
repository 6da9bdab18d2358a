#include "model/model.hh"

#include "util/logging.hh"

namespace gobo {

ParamShape
ParamShape::of(const Tensor &t)
{
    return t.rank() == 2 ? ParamShape{t.rows(), t.cols()}
                         : ParamShape{t.size(), 0};
}

void
checkParamShape(const std::string &name, ParamShape want, ParamShape got)
{
    fatalIf(got != want, "shape mismatch for ", name, ": stored [",
            got.rows, ", ", got.cols, "], model needs [", want.rows, ", ",
            want.cols, "]");
}

BertModel::BertModel(ModelConfig config, std::size_t headRows)
    : cfg(std::move(config))
{
    cfg.check();
    encoders.resize(cfg.numLayers);
    resizeHead(headRows);
}

BertModel::BertModel(ModelConfig config) : BertModel(std::move(config), 1)
{
    for (auto &p : parameters())
        *p.tensor = p.shape.cols ? Tensor(p.shape.rows, p.shape.cols)
                                 : Tensor(p.shape.rows);
    embLnGamma.fill(1.0f);
    for (auto &enc : encoders) {
        enc.attnLnGamma.fill(1.0f);
        enc.outLnGamma.fill(1.0f);
    }
}

BertModel
BertModel::forLoading(ModelConfig config, std::size_t headRows)
{
    return BertModel(std::move(config), headRows);
}

namespace {

template <typename Ref, typename Model>
std::vector<Ref>
enumerateFcLayers(Model &m)
{
    std::vector<Ref> out;
    out.reserve(m.config().numFcLayers());
    for (std::size_t e = 0; e < m.encoders.size(); ++e) {
        std::string prefix = "encoder" + std::to_string(e) + ".";
        for (const EncoderFc &f : encoderFcs)
            out.push_back({prefix + fcKindName(f.kind), f.kind, e,
                           &(m.encoders[e].*f.weight)});
    }
    out.push_back({"pooler", FcKind::Pooler, m.encoders.size(),
                   &m.poolerW});
    return out;
}

template <typename Ref, typename Model>
std::vector<Ref>
enumerateParams(Model &m)
{
    const ModelConfig &c = m.config();
    const std::size_t h = c.hidden;
    std::vector<Ref> out;
    auto add = [&](std::string name, auto &t, ParamShape s,
                   bool fc = false) {
        out.push_back({std::move(name), &t, s, fc});
    };
    add("word_embedding", m.wordEmbedding, {c.vocabSize, h});
    add("position_embedding", m.positionEmbedding, {c.maxPosition, h});
    add("embedding_ln.gamma", m.embLnGamma, {h});
    add("embedding_ln.beta", m.embLnBeta, {h});
    for (std::size_t e = 0; e < m.encoders.size(); ++e) {
        auto &enc = m.encoders[e];
        std::string prefix = "encoder" + std::to_string(e) + ".";
        auto fc = [&](const EncoderFc &f, std::size_t out_f,
                      std::size_t in_f) {
            std::string name = prefix + fcKindName(f.kind);
            add(name, enc.*f.weight, {out_f, in_f}, true);
            add(name + ".bias", enc.*f.bias, {out_f});
        };
        for (std::size_t k = 0; k < 4; ++k)
            fc(encoderFcs[k], h, h);
        add(prefix + "attn_ln.gamma", enc.attnLnGamma, {h});
        add(prefix + "attn_ln.beta", enc.attnLnBeta, {h});
        fc(encoderFcs[4], c.intermediate, h);
        fc(encoderFcs[5], h, c.intermediate);
        add(prefix + "output_ln.gamma", enc.outLnGamma, {h});
        add(prefix + "output_ln.beta", enc.outLnBeta, {h});
    }
    add("pooler", m.poolerW, {h, h}, true);
    add("pooler.bias", m.poolerB, {h});
    add("head", m.headW, {m.headW.rows(), h});
    add("head.bias", m.headB, {m.headW.rows()});
    return out;
}

} // namespace

std::vector<FcLayerRef>
BertModel::fcLayers()
{
    return enumerateFcLayers<FcLayerRef>(*this);
}

std::vector<ConstFcLayerRef>
BertModel::fcLayers() const
{
    return enumerateFcLayers<ConstFcLayerRef>(*this);
}

std::vector<ParamRef>
BertModel::parameters()
{
    return enumerateParams<ParamRef>(*this);
}

std::vector<ConstParamRef>
BertModel::parameters() const
{
    return enumerateParams<ConstParamRef>(*this);
}

void
BertModel::resizeHead(std::size_t outputs)
{
    fatalIf(outputs == 0, "head needs at least one output");
    headW = Tensor(outputs, cfg.hidden);
    headB = Tensor(outputs);
}

std::size_t
BertModel::parameterCount() const
{
    std::size_t n = 0;
    for (const auto &p : parameters())
        n += p.tensor->size();
    return n;
}

} // namespace gobo
