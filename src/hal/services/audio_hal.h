// Audio HAL (simulated vendor audio flinger backend).
//
// Output streams over the audio_pcm kernel driver with the full ALSA-style
// hw_params/prepare/start/write/drain protocol. No planted bug: this HAL
// demonstrates how correct HAL sequencing reaches deep PCM driver states
// that random syscalls rarely do.
#pragma once

#include <map>

#include "hal/hal_service.h"

namespace df::hal::services {

class AudioHal final : public HalService {
 public:
  static constexpr uint32_t kOpenOutput = 1;
  static constexpr uint32_t kWrite = 2;
  static constexpr uint32_t kSetVolume = 3;
  static constexpr uint32_t kStandby = 4;
  static constexpr uint32_t kCloseOutput = 5;
  static constexpr uint32_t kGetLatency = 6;

  explicit AudioHal(kernel::Kernel& kernel)
      : HalService(kernel, "android.hardware.audio@sim") {}

  InterfaceDesc interface() const override;
  std::vector<UsageWeight> app_usage_profile() const override;

  void state(kernel::StateArchive& ar) override {
    ar.u32(next_stream_);
    ar.u32(volume_);
    ar.map(streams_, [&](Stream& s) {
      ar.i32(s.fd);
      ar.u32(s.rate);
      ar.u32(s.channels);
      ar.u32(s.fmt);
      ar.b(s.running);
    });
  }

 protected:
  TxResult on_transact(uint32_t code, Parcel& data) override;
  void reset_native() override;

 private:
  struct Stream {
    int32_t fd = -1;
    uint32_t rate = 0, channels = 0, fmt = 0;
    bool running = false;
  };

  uint32_t next_stream_ = 1;
  uint32_t volume_ = 50;
  std::map<uint32_t, Stream> streams_;
};

}  // namespace df::hal::services
