#include "workloads/streamit.h"

#include <vector>

#include "util/contract.h"

namespace ccs::workloads {

using sdf::NodeId;
using sdf::SdfGraph;

namespace {

/// State sizes (in words) modelling typical filter implementations.
constexpr std::int64_t kTaps64 = 64;     // 64-tap FIR coefficient array
constexpr std::int64_t kTaps128 = 128;   // sharper band-pass filter
constexpr std::int64_t kSmall = 16;      // stateless-ish glue (demod, adders)
constexpr std::int64_t kSbox = 512;      // 8 DES S-boxes, 64 entries each

}  // namespace

SdfGraph fm_radio(std::int32_t bands) {
  CCS_EXPECTS(bands >= 1, "fm_radio needs at least one band");
  SdfGraph g;
  const NodeId src = g.add_node("AtoD", kSmall);
  // Decimating low-pass: consumes 4 samples, produces 1.
  const NodeId lpf = g.add_node("LowPass", kTaps64);
  g.add_edge(src, lpf, 1, 4);
  const NodeId demod = g.add_node("FMDemod", kSmall);
  g.add_edge(lpf, demod, 1, 1);
  // Equalizer: duplicate split, one band-pass + gain stage per band, then an
  // adder join.
  const NodeId split = g.add_node("EqSplit", kSmall);
  g.add_edge(demod, split, 1, 1);
  const NodeId join = g.add_node("EqJoin", kSmall);
  for (std::int32_t b = 0; b < bands; ++b) {
    const NodeId bp = g.add_node("BandPass" + std::to_string(b), kTaps128);
    const NodeId amp = g.add_node("Gain" + std::to_string(b), kSmall);
    g.add_edge(split, bp, 1, 1);  // duplicate: one copy per band per firing
    g.add_edge(bp, amp, 1, 1);
    g.add_edge(amp, join, 1, 1);
  }
  const NodeId sink = g.add_node("Speaker", kSmall);
  g.add_edge(join, sink, 1, 1);
  return g;
}

SdfGraph filter_bank(std::int32_t channels) {
  CCS_EXPECTS(channels >= 1, "filter_bank needs at least one channel");
  SdfGraph g;
  const NodeId src = g.add_node("Source", kSmall);
  const NodeId split = g.add_node("Split", kSmall);
  g.add_edge(src, split, 1, 1);
  const NodeId join = g.add_node("Combine", kSmall);
  const std::int64_t m = channels;
  for (std::int32_t c = 0; c < channels; ++c) {
    const std::string tag = std::to_string(c);
    const NodeId analysis = g.add_node("Analysis" + tag, kTaps128);
    const NodeId down = g.add_node("Down" + tag, kSmall);
    const NodeId up = g.add_node("Up" + tag, kSmall);
    const NodeId synthesis = g.add_node("Synthesis" + tag, kTaps128);
    g.add_edge(split, analysis, 1, 1);   // duplicate split
    g.add_edge(analysis, down, 1, m);    // decimate by M
    g.add_edge(down, up, 1, 1);
    g.add_edge(up, synthesis, m, 1);     // interpolate by M
    g.add_edge(synthesis, join, 1, 1);
  }
  const NodeId sink = g.add_node("Sink", kSmall);
  g.add_edge(join, sink, 1, 1);
  return g;
}

SdfGraph beamformer(std::int32_t channels, std::int32_t beams) {
  CCS_EXPECTS(channels >= 1 && beams >= 1, "beamformer needs channels and beams");
  SdfGraph g;
  const NodeId src = g.add_node("Antenna", kSmall);
  const NodeId split = g.add_node("ChanSplit", kSmall);
  g.add_edge(src, split, 1, 1);
  // Frame collector: one token from each channel, emits a `channels`-wide
  // frame per firing.
  const NodeId collect = g.add_node("FrameJoin", kSmall);
  for (std::int32_t c = 0; c < channels; ++c) {
    const std::string tag = std::to_string(c);
    const NodeId coarse = g.add_node("CoarseFIR" + tag, kTaps64);
    const NodeId fine = g.add_node("FineFIR" + tag, kTaps64);
    g.add_edge(split, coarse, 1, 1);
    g.add_edge(coarse, fine, 1, 1);
    g.add_edge(fine, collect, 1, 1);
  }
  const NodeId beam_split = g.add_node("BeamSplit", kSmall);
  g.add_edge(collect, beam_split, static_cast<std::int64_t>(channels),
             static_cast<std::int64_t>(channels));
  const NodeId beam_join = g.add_node("BeamJoin", kSmall);
  for (std::int32_t b = 0; b < beams; ++b) {
    const std::string tag = std::to_string(b);
    // Beamform consumes a whole frame, produces one beam sample.
    const NodeId bf = g.add_node("Beamform" + tag, kTaps128);
    const NodeId mag = g.add_node("Magnitude" + tag, kSmall);
    const NodeId det = g.add_node("Detect" + tag, kSmall);
    g.add_edge(beam_split, bf, static_cast<std::int64_t>(channels),
               static_cast<std::int64_t>(channels));
    g.add_edge(bf, mag, 1, 1);
    g.add_edge(mag, det, 1, 1);
    g.add_edge(det, beam_join, 1, 1);
  }
  const NodeId sink = g.add_node("Output", kSmall);
  g.add_edge(beam_join, sink, 1, 1);
  return g;
}

namespace {

/// Builds a butterfly network over 2^log_n wires: `stage_pairs(stage)` maps
/// each wire to its partner; consecutive stages are connected wire-by-wire
/// through two-input/two-output compare/combine modules.
SdfGraph butterfly_network(const std::string& prefix, std::int32_t log_n,
                           std::int32_t stages, std::int64_t module_state) {
  const std::int32_t n = 1 << log_n;
  SdfGraph g;
  const NodeId src = g.add_node(prefix + "Src", kSmall);
  const NodeId fan = g.add_node(prefix + "Fan", kSmall);
  g.add_edge(src, fan, 1, 1);
  // wire[w] = (node, which to read next output from). Each stage pairs wires
  // (w, w ^ stride) once per stage using module nodes with 2 in + 2 out.
  std::vector<NodeId> wire(static_cast<std::size_t>(n), fan);
  std::int32_t unit = 0;
  for (std::int32_t s = 0; s < stages; ++s) {
    const std::int32_t stride = 1 << (s % log_n);
    std::vector<NodeId> next = wire;
    for (std::int32_t w = 0; w < n; ++w) {
      const std::int32_t partner = w ^ stride;
      if (partner < w) continue;  // handle each pair once
      const NodeId unit_node =
          g.add_node(prefix + "U" + std::to_string(unit++), module_state);
      g.add_edge(wire[static_cast<std::size_t>(w)], unit_node, 1, 1);
      g.add_edge(wire[static_cast<std::size_t>(partner)], unit_node, 1, 1);
      next[static_cast<std::size_t>(w)] = unit_node;
      next[static_cast<std::size_t>(partner)] = unit_node;
    }
    wire = std::move(next);
  }
  const NodeId merge = g.add_node(prefix + "Merge", kSmall);
  // Collapse duplicate producers: each unit feeds `merge` once per wire it
  // owns, giving merge exactly n incoming tokens per logical vector.
  for (std::int32_t w = 0; w < n; ++w) {
    g.add_edge(wire[static_cast<std::size_t>(w)], merge, 1, 1);
  }
  const NodeId sink = g.add_node(prefix + "Sink", kSmall);
  g.add_edge(merge, sink, 1, 1);
  return g;
}

}  // namespace

SdfGraph bitonic_sort(std::int32_t log_n) {
  CCS_EXPECTS(log_n >= 1 && log_n <= 6, "bitonic_sort supports 2..64 wires");
  const std::int32_t stages = log_n * (log_n + 1) / 2;
  return butterfly_network("Bi", log_n, stages, kSmall);
}

SdfGraph fft(std::int32_t log_n) {
  CCS_EXPECTS(log_n >= 1 && log_n <= 6, "fft supports 2..64 wires");
  return butterfly_network("Fft", log_n, log_n, kTaps64);
}

SdfGraph des(std::int32_t rounds) {
  CCS_EXPECTS(rounds >= 1, "des needs at least one round");
  SdfGraph g;
  NodeId prev = g.add_node("IP", kSmall);  // initial permutation; source
  for (std::int32_t r = 0; r < rounds; ++r) {
    const std::string tag = std::to_string(r);
    const NodeId expand = g.add_node("Expand" + tag, kSmall);
    const NodeId keymix = g.add_node("KeyMix" + tag, kTaps64);
    const NodeId sbox = g.add_node("Sbox" + tag, kSbox);
    const NodeId perm = g.add_node("Perm" + tag, kSmall);
    g.add_edge(prev, expand, 1, 1);
    g.add_edge(expand, keymix, 1, 1);
    g.add_edge(keymix, sbox, 1, 1);
    g.add_edge(sbox, perm, 1, 1);
    prev = perm;
  }
  const NodeId fp = g.add_node("FP", kSmall);  // final permutation; sink
  g.add_edge(prev, fp, 1, 1);
  return g;
}

SdfGraph channel_vocoder(std::int32_t filters) {
  CCS_EXPECTS(filters >= 1, "channel_vocoder needs at least one filter");
  SdfGraph g;
  const NodeId src = g.add_node("Source", kSmall);
  const NodeId split = g.add_node("Dup", kSmall);
  g.add_edge(src, split, 1, 1);
  const NodeId join = g.add_node("Mixer", kSmall);
  // Pitch-detector branch: decimates by 8 (it needs windows, not samples).
  const NodeId pitch = g.add_node("PitchDetect", kTaps128);
  const NodeId pitch_up = g.add_node("PitchUp", kSmall);
  g.add_edge(split, pitch, 1, 8);
  g.add_edge(pitch, pitch_up, 8, 1);
  g.add_edge(pitch_up, join, 1, 1);
  for (std::int32_t f = 0; f < filters; ++f) {
    const std::string tag = std::to_string(f);
    const NodeId bp = g.add_node("VocBand" + tag, kTaps64);
    const NodeId mag = g.add_node("VocMag" + tag, kSmall);
    g.add_edge(split, bp, 1, 1);
    g.add_edge(bp, mag, 1, 1);
    g.add_edge(mag, join, 1, 1);
  }
  const NodeId sink = g.add_node("Synth", kTaps64);
  g.add_edge(join, sink, 1, 1);
  return g;
}

SdfGraph matrix_mult(std::int32_t block) {
  CCS_EXPECTS(block >= 2 && block <= 64, "matrix_mult supports blocks of 2..64");
  const std::int64_t tile = static_cast<std::int64_t>(block) * block;
  SdfGraph g;
  const NodeId src = g.add_node("TileSource", kSmall);
  const NodeId trans = g.add_node("Transpose", tile);
  const NodeId mult = g.add_node("Multiply", 2 * tile);
  const NodeId acc = g.add_node("Accumulate", tile);
  const NodeId sink = g.add_node("TileSink", kSmall);
  g.add_edge(src, trans, tile, tile);
  g.add_edge(trans, mult, tile, 2 * tile);  // multiply consumes two tiles
  g.add_edge(mult, acc, tile, tile);
  g.add_edge(acc, sink, tile, tile);
  return g;
}

sdf::SdfGraph vocoder(std::int32_t bins) {
  CCS_EXPECTS(bins >= 1, "vocoder needs at least one spectral bin");
  SdfGraph g;
  const NodeId src = g.add_node("Samples", kSmall);
  // Analysis window: consume a hop of 16 samples, emit one frame of `bins`
  // complex values (2 words each).
  const std::int64_t frame = 2 * static_cast<std::int64_t>(bins);
  const NodeId window = g.add_node("AnalysisWin", kTaps128);
  g.add_edge(src, window, 1, 16);
  const NodeId split = g.add_node("BinSplit", kSmall);
  g.add_edge(window, split, frame, frame);
  const NodeId join = g.add_node("BinJoin", kSmall);
  for (std::int32_t bin = 0; bin < bins; ++bin) {
    const std::string tag = std::to_string(bin);
    const NodeId mag = g.add_node("Mag" + tag, kSmall);
    const NodeId phase = g.add_node("Phase" + tag, kTaps64);
    g.add_edge(split, mag, 2, 2);    // one complex value per frame per bin
    g.add_edge(mag, phase, 2, 2);
    g.add_edge(phase, join, 2, 2);
  }
  const NodeId synth = g.add_node("OverlapAdd", kTaps128);
  g.add_edge(join, synth, frame, frame);
  const NodeId sink = g.add_node("Audio", kSmall);
  g.add_edge(synth, sink, 16, 16);  // back to time-domain hops
  return g;
}

sdf::SdfGraph tde(std::int32_t fft_size) {
  CCS_EXPECTS(fft_size >= 4, "tde needs a block size of at least 4");
  const std::int64_t n = fft_size;
  SdfGraph g;
  const NodeId src = g.add_node("PulseSource", kSmall);
  const NodeId pack = g.add_node("Pack", kSmall);
  g.add_edge(src, pack, 1, n);  // gather one block per firing
  const NodeId fft_fwd = g.add_node("FFTfwd", 2 * n);   // twiddle tables
  g.add_edge(pack, fft_fwd, n, n);
  const NodeId equalize = g.add_node("Equalize", 2 * n);  // inverse response
  g.add_edge(fft_fwd, equalize, n, n);
  const NodeId fft_inv = g.add_node("FFTinv", 2 * n);
  g.add_edge(equalize, fft_inv, n, n);
  const NodeId unpack = g.add_node("Unpack", kSmall);
  g.add_edge(fft_inv, unpack, n, n);
  const NodeId sink = g.add_node("PulseSink", kSmall);
  g.add_edge(unpack, sink, n, 1);  // re-serialize... one sample per firing
  return g;
}

sdf::SdfGraph serpent(std::int32_t rounds) {
  CCS_EXPECTS(rounds >= 1, "serpent needs at least one round");
  SdfGraph g;
  NodeId prev = g.add_node("InitPerm", kSmall);
  for (std::int32_t r = 0; r < rounds; ++r) {
    const std::string tag = std::to_string(r);
    const NodeId keyxor = g.add_node("KeyXor" + tag, 32);   // round key
    const NodeId sbox = g.add_node("SerpSbox" + tag, 128);  // 4-bit S-box bank
    const NodeId lt = g.add_node("Linear" + tag, kSmall);
    g.add_edge(prev, keyxor, 1, 1);
    g.add_edge(keyxor, sbox, 1, 1);
    g.add_edge(sbox, lt, 1, 1);
    prev = lt;
  }
  const NodeId fp = g.add_node("FinalPerm", kSmall);
  g.add_edge(prev, fp, 1, 1);
  return g;
}

sdf::SdfGraph radar(std::int32_t channels, std::int32_t beams) {
  CCS_EXPECTS(channels >= 1 && beams >= 1, "radar needs channels and beams");
  SdfGraph g;
  const NodeId src = g.add_node("Array", kSmall);
  const NodeId split = g.add_node("ChanSplit", kSmall);
  g.add_edge(src, split, 1, 1);
  const NodeId collect = g.add_node("Steer", kTaps128);  // steering matrix
  for (std::int32_t c = 0; c < channels; ++c) {
    const std::string tag = std::to_string(c);
    // Deep per-channel chain: decimating input FIR then three more FIRs.
    const NodeId fir1 = g.add_node("InFIR" + tag, kTaps64);
    const NodeId fir2 = g.add_node("MFIR1_" + tag, kTaps64);
    const NodeId fir3 = g.add_node("MFIR2_" + tag, kTaps64);
    const NodeId fir4 = g.add_node("OutFIR" + tag, kTaps64);
    g.add_edge(split, fir1, 1, 2);  // 2:1 decimation per channel
    g.add_edge(fir1, fir2, 1, 1);
    g.add_edge(fir2, fir3, 1, 1);
    g.add_edge(fir3, fir4, 1, 1);
    g.add_edge(fir4, collect, 1, 1);
  }
  const NodeId beam_split = g.add_node("BeamSplit", kSmall);
  g.add_edge(collect, beam_split, static_cast<std::int64_t>(channels),
             static_cast<std::int64_t>(channels));
  const NodeId join = g.add_node("Detect", kSmall);
  for (std::int32_t b = 0; b < beams; ++b) {
    const std::string tag = std::to_string(b);
    const NodeId form = g.add_node("Form" + tag, kTaps128);
    const NodeId compress = g.add_node("PulseComp" + tag, kTaps128);
    const NodeId cfar = g.add_node("CFAR" + tag, kTaps64);
    g.add_edge(beam_split, form, static_cast<std::int64_t>(channels),
               static_cast<std::int64_t>(channels));
    g.add_edge(form, compress, 1, 1);
    g.add_edge(compress, cfar, 1, 1);
    g.add_edge(cfar, join, 1, 1);
  }
  const NodeId sink = g.add_node("Tracks", kSmall);
  g.add_edge(join, sink, 1, 1);
  return g;
}

std::vector<NamedGraph> streamit_suite() {
  std::vector<NamedGraph> suite;
  suite.push_back({"FMRadio", fm_radio()});
  suite.push_back({"FilterBank", filter_bank()});
  suite.push_back({"Beamformer", beamformer()});
  suite.push_back({"BitonicSort", bitonic_sort()});
  suite.push_back({"FFT", fft()});
  suite.push_back({"DES", des()});
  suite.push_back({"ChannelVocoder", channel_vocoder()});
  suite.push_back({"MatrixMult", matrix_mult()});
  suite.push_back({"Vocoder", vocoder()});
  suite.push_back({"TDE", tde()});
  suite.push_back({"Serpent", serpent()});
  suite.push_back({"Radar", radar()});
  return suite;
}

}  // namespace ccs::workloads
