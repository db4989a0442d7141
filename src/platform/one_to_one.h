// One-to-one deployment backends (paper §2.1/§2.2 Observation 1): every
// function in its own warm sandbox; parallel fan-out pays the platform's
// scheduling ramp (Fig. 3) and every stage boundary moves intermediate
// data through third-party storage (Fig. 4).
#pragma once

#include "netstore/transfer.h"
#include "platform/backend.h"
#include "runtime/params.h"

namespace chiron {

/// Which commercial/open-source one-to-one platform to model.
enum class OneToOneKind {
  kAsf,       ///< AWS Step Functions + S3 (and per-transition billing)
  kOpenFaas,  ///< OpenFaaS on the local cluster + MinIO
};

/// One-to-one backend: warm sandboxes, storage-mediated interaction.
class OneToOneBackend : public Backend {
 public:
  OneToOneBackend(OneToOneKind kind, RuntimeParams params, Workflow wf,
                  NoiseConfig noise = {});

  std::string name() const override;
  RunResult run(Rng& rng) const override;
  ResourceUsage resources() const override;

  /// The storage channel used for intermediate data.
  const TransferModel& transfer() const { return transfer_; }

 private:
  TimeMs scheduling_ms(std::size_t fan_out) const;

  OneToOneKind kind_;
  RuntimeParams params_;
  Workflow wf_;
  NoiseConfig noise_;
  TransferModel transfer_;
};

}  // namespace chiron
