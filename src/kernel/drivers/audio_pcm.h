// ALSA-style PCM playback driver (simulated vendor audio DSP front end).
//
// hw_params -> prepare -> start -> write periods -> drain/pause. No planted
// bug: this driver exists to give the Audio HAL a deep, realistic kernel
// counterpart whose states only a correctly sequenced client reaches.
#pragma once

#include "kernel/driver.h"

namespace df::kernel::drivers {

class AudioPcmDriver final : public Driver {
 public:
  static constexpr uint64_t kIocHwParams = 0xc001;  // u32 rate, ch, fmt
  static constexpr uint64_t kIocPrepare = 0xc002;
  static constexpr uint64_t kIocStart = 0xc003;
  static constexpr uint64_t kIocDrain = 0xc004;
  static constexpr uint64_t kIocPause = 0xc005;  // u32 on/off
  static constexpr uint64_t kIocStatus = 0xc006;

  std::string_view name() const override { return "audio_pcm"; }
  std::vector<std::string> nodes() const override { return {"/dev/snd_pcm"}; }
  std::vector<std::string> state_names() const override {
    return {"open", "setup", "prepared", "running", "paused", "draining"};
  }
  std::vector<DeclaredTransition> declared_transitions() const override {
    return {
        {0, 1,
         {{"ioctl$PCM_HW_PARAMS",
           {{"rate", 8000}, {"channels", 2}, {"format", 0}}}}},
        {1, 2, {{"ioctl$PCM_PREPARE"}}},
        {2, 3, {{"ioctl$PCM_START"}}},
        {3, 4, {{"ioctl$PCM_PAUSE", {{"on", 1}}}}},
        {4, 3, {{"ioctl$PCM_PAUSE", {{"on", 0}}}}},
        {4, 2, {{"ioctl$PCM_PREPARE"}}},
        {3, 5, {{"ioctl$PCM_DRAIN"}}},
        {5, 1, {{"ioctl$PCM_DRAIN"}}},
    };
  }

  void probe(DriverCtx& ctx) override;
  void reset() override;

  void state(StateArchive& ar) override {
    ar.enumeration(st_);
    ar.u32(rate_);
    ar.u32(channels_);
    ar.u32(fmt_);
    ar.u64(frames_written_);
  }

  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override;
  int64_t write(DriverCtx& ctx, File& f,
                std::span<const uint8_t> data) override;
  int64_t mmap(DriverCtx& ctx, File& f, size_t len, uint64_t prot) override;

 private:
  enum class St { kOpen, kSetup, kPrepared, kRunning, kPaused, kDraining };

  void track_st() { enter_state(static_cast<size_t>(st_)); }

  St st_ = St::kOpen;
  uint32_t rate_ = 0, channels_ = 0, fmt_ = 0;
  uint64_t frames_written_ = 0;
};

}  // namespace df::kernel::drivers
