#include "ecc/ecc_engine.hh"

#include "common/logging.hh"
#include "ecc/bch.hh"
#include "ecc/rs.hh"

namespace esd
{

namespace
{

/** The default engine: the per-word Hamming(72,64) SEC-DED codec of
 * LineEccCodec, wrapped unchanged so `ecc.engine = hamming` is
 * bit-identical to the pre-engine simulator. */
class HammingEngine final : public EccEngine
{
  public:
    EccEngineKind kind() const override { return EccEngineKind::Hamming; }
    const char *name() const override { return "hamming"; }

    EccCapability
    capability() const override
    {
        return EccCapability{kWordsPerLine, 1, 1, 64};
    }

    LineEcc
    encodeLine(const CacheLine &line) const override
    {
        return LineEccCodec::encode(line);
    }

    LineEcc
    encodeLineOracle(const CacheLine &line) const override
    {
        return LineEccCodec::encodeScalar(line);
    }

    LineDecodeResult
    decodeLine(const CacheLine &line, LineEcc ecc) const override
    {
        return LineEccCodec::decode(line, ecc);
    }
};

} // namespace

const EccEngine &
eccEngine(EccEngineKind kind)
{
    static const HammingEngine hamming;
    static const BchLineEngine bch;
    static const RsLineEngine rs;
    switch (kind) {
      case EccEngineKind::Hamming:
        return hamming;
      case EccEngineKind::Bch:
        return bch;
      case EccEngineKind::Rs:
        return rs;
    }
    esd_fatal("unknown ecc engine kind %d", static_cast<int>(kind));
}

} // namespace esd
