// Absolute pins on everything the serving engine reports. A grid of
// faulted runs — nodes {1, 2, 4, 8} x six seeded draws x every router
// policy x sim_threads {1, 4} (one policy and one thread at nodes = 1,
// where neither is consulted) — serves a zero-noise FINRA-5 Chiron plan
// with a fresh MetricsRegistry, Tracer and FlightRecorder per run. A row
// holds four FNV-1a-64 digests, every number at "%.17g":
//   - result:   every ClusterResult field, node_results included;
//   - registry: the registry's JSON tree (counters, gauges with their
//               high-water marks, histograms);
//   - recorder: the recorder's events, in seq order at one thread and
//               sorted at four (workers interleave their writes);
//   - trace:    the Tracer's events as a sorted multiset, so only the
//               order of events sharing one timestamp is free to change.
// The draws cover cold-start, crash, straggler and node-crash faults,
// 1-4 attempts, jitter {0, 1, uniform}, a 0.5 ms backoff and timeouts.
//
// On a mismatch the test prints the row as it now reads; a change that
// means to move a row replaces exactly that row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "platform/cluster.h"
#include "platform/systems.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

struct TelemetryGolden {
  std::size_t nodes;
  int draw;
  const char* policy;
  std::size_t threads;
  std::uint64_t result_fnv;
  std::uint64_t registry_fnv;
  std::uint64_t recorder_fnv;
  std::uint64_t trace_fnv;
};

// clang-format off
const TelemetryGolden kTelemetryGolden[] = {
    {1, 0, "round_robin", 1, 0xb180f77684be05ee, 0x81ecf588d30928c8, 0xb2269deabb005561, 0x16def7d38eeef353},
    {1, 1, "round_robin", 1, 0x3be508a44c65cdd3, 0x99e1b170fbfb2ae2, 0x22ba5c6ffcef35cb, 0x13b72fc9da319997},
    {1, 2, "round_robin", 1, 0xc799c523e2a31fcc, 0x5baad7f63427847d, 0xa79ac289207edfa0, 0xfbf9f6d81273fc56},
    {1, 3, "round_robin", 1, 0xd3dd0a23af7797ea, 0x213cae69c9d57044, 0xbb8e3d32bb6d6f02, 0x884f43b5642bc695},
    {1, 4, "round_robin", 1, 0xe429a074ff4e8720, 0x2a9cc82eb8d66bac, 0x1dfd8e0d8bcb0b7a, 0x3f7ece85c653f136},
    {1, 5, "round_robin", 1, 0x8114b2f39f30c6a4, 0xfd1876ddf9a93ab3, 0x92a8e3f9ba59e0c2, 0x8256191f295ab4c1},
    {2, 0, "round_robin", 1, 0x51405369e4650627, 0x957527c9b172c25b, 0xb51b51c8ffc4312b, 0x12a36d3856f58bb0},
    {2, 0, "round_robin", 4, 0x51405369e4650627, 0x957527c9b172c25b, 0x91917f83168ce743, 0x12a36d3856f58bb0},
    {2, 0, "random", 1, 0xfc54fc7ca6e6a2e5, 0x21df5aef047a5d42, 0x219eda0b6410c1ca, 0x2bae578488888842},
    {2, 0, "random", 4, 0xfc54fc7ca6e6a2e5, 0x21df5aef047a5d42, 0xdef90746daa855be, 0x2bae578488888842},
    {2, 0, "least_outstanding", 1, 0xabc44f6766f853db, 0xc6ffeb5cbc877650, 0xb603cdd803f3ed7e, 0xe54565c386db8fea},
    {2, 0, "least_outstanding", 4, 0xabc44f6766f853db, 0xc6ffeb5cbc877650, 0x5718f1d1188527aa, 0xe54565c386db8fea},
    {2, 0, "power_of_two", 1, 0x9f9b306ce3ab783a, 0xb87d95dedfb838a5, 0x1f8cedf30fab7ac3, 0x9065fe7254cfd51c},
    {2, 0, "power_of_two", 4, 0x9f9b306ce3ab783a, 0xb87d95dedfb838a5, 0xbbc7a1a027119e59, 0x9065fe7254cfd51c},
    {2, 0, "warm_affinity", 1, 0xabc44f6766f853db, 0xc6ffeb5cbc877650, 0xb603cdd803f3ed7e, 0xe54565c386db8fea},
    {2, 0, "warm_affinity", 4, 0xabc44f6766f853db, 0xc6ffeb5cbc877650, 0x5718f1d1188527aa, 0xe54565c386db8fea},
    {2, 1, "round_robin", 1, 0x8e4638070be5e386, 0x791d816b42409519, 0x9cd58b15bfdc39ae, 0x238008152ec54550},
    {2, 1, "round_robin", 4, 0x8e4638070be5e386, 0x791d816b42409519, 0x5aa393cf33d1d700, 0x238008152ec54550},
    {2, 1, "random", 1, 0x9437bf8b91bc9038, 0xd832045fa5e50c57, 0x9fc21b813c4d696c, 0x44b4081678bdee3c},
    {2, 1, "random", 4, 0x9437bf8b91bc9038, 0xd832045fa5e50c57, 0xe0229636e9c4edc8, 0x44b4081678bdee3c},
    {2, 1, "least_outstanding", 1, 0x66f34ad223c6a585, 0x2a27549966a2be56, 0xa9e804d5c6561cd3, 0x4f24e7eee3c963e2},
    {2, 1, "least_outstanding", 4, 0x66f34ad223c6a585, 0x2a27549966a2be56, 0xa877f7074845bc43, 0x4f24e7eee3c963e2},
    {2, 1, "power_of_two", 1, 0x0e6f23f9c4733231, 0x519c75e4a3ad059f, 0x1d07014b14b042b1, 0x8c1ecb65907004b1},
    {2, 1, "power_of_two", 4, 0x0e6f23f9c4733231, 0x519c75e4a3ad059f, 0x668cc521648dff7f, 0x8c1ecb65907004b1},
    {2, 1, "warm_affinity", 1, 0x66f34ad223c6a585, 0x2a27549966a2be56, 0xa9e804d5c6561cd3, 0x4f24e7eee3c963e2},
    {2, 1, "warm_affinity", 4, 0x66f34ad223c6a585, 0x2a27549966a2be56, 0xa877f7074845bc43, 0x4f24e7eee3c963e2},
    {2, 2, "round_robin", 1, 0xe319c1305df2d3ac, 0xfd78dc2b8b44ee76, 0x418573a4991d9afd, 0xc66e082869e88d6a},
    {2, 2, "round_robin", 4, 0xe319c1305df2d3ac, 0xfd78dc2b8b44ee76, 0xe8f331b0cad64c1d, 0xc66e082869e88d6a},
    {2, 2, "random", 1, 0x660761a3e56ce62b, 0x8b063ced0963bf78, 0x07955c6db0a67372, 0x7987b5229c54b862},
    {2, 2, "random", 4, 0x660761a3e56ce62b, 0x8b063ced0963bf78, 0xb962260273f737e4, 0x7987b5229c54b862},
    {2, 2, "least_outstanding", 1, 0x94b10e79c4ba8de0, 0xfe2572050987650f, 0x7e0e74278154708b, 0xb4b43072226345c8},
    {2, 2, "least_outstanding", 4, 0x94b10e79c4ba8de0, 0xfe2572050987650f, 0xf239bac1c755dfbb, 0xb4b43072226345c8},
    {2, 2, "power_of_two", 1, 0x700bd9c120636758, 0xa60ae6f3ca67df4b, 0x35a4bc911a550ab9, 0xf412e538365e1d68},
    {2, 2, "power_of_two", 4, 0x700bd9c120636758, 0xa60ae6f3ca67df4b, 0xfc9dd19e36784fe1, 0xf412e538365e1d68},
    {2, 2, "warm_affinity", 1, 0x94b10e79c4ba8de0, 0xfe2572050987650f, 0x7e0e74278154708b, 0xb4b43072226345c8},
    {2, 2, "warm_affinity", 4, 0x94b10e79c4ba8de0, 0xfe2572050987650f, 0xf239bac1c755dfbb, 0xb4b43072226345c8},
    {2, 3, "round_robin", 1, 0xba7b104ea74e6f73, 0xe7f9b2957e456975, 0x383a5fd596081ce7, 0x8b3cdfb93291154f},
    {2, 3, "round_robin", 4, 0xba7b104ea74e6f73, 0xe7f9b2957e456975, 0x05c58c618cb92015, 0x8b3cdfb93291154f},
    {2, 3, "random", 1, 0x8f5753bc46d18061, 0x3ba19d0a30e3641f, 0xc72c9e0b378110ac, 0x6004544cc4110bae},
    {2, 3, "random", 4, 0x8f5753bc46d18061, 0x3ba19d0a30e3641f, 0xd99ef82166796ce6, 0x6004544cc4110bae},
    {2, 3, "least_outstanding", 1, 0xce854a62e289e4f1, 0x6c8d3305bbbf694b, 0xb4d51b948c03268a, 0xe7c4148dd4a0d461},
    {2, 3, "least_outstanding", 4, 0xce854a62e289e4f1, 0x6c8d3305bbbf694b, 0x773e06f932e29aa8, 0xe7c4148dd4a0d461},
    {2, 3, "power_of_two", 1, 0x3cc1a51baa867f73, 0xe178e1c7c3e919e4, 0x92d7f0109914b860, 0xe1dd8e124502ba49},
    {2, 3, "power_of_two", 4, 0x3cc1a51baa867f73, 0xe178e1c7c3e919e4, 0x7021fb3432228dca, 0xe1dd8e124502ba49},
    {2, 3, "warm_affinity", 1, 0xce854a62e289e4f1, 0x6c8d3305bbbf694b, 0xb4d51b948c03268a, 0xe7c4148dd4a0d461},
    {2, 3, "warm_affinity", 4, 0xce854a62e289e4f1, 0x6c8d3305bbbf694b, 0x773e06f932e29aa8, 0xe7c4148dd4a0d461},
    {2, 4, "round_robin", 1, 0x3c02a1e1eb5c5325, 0x76fa516637a71c95, 0xd5a25a3f4b3c6300, 0xcabbf18c438c534f},
    {2, 4, "round_robin", 4, 0x3c02a1e1eb5c5325, 0x76fa516637a71c95, 0x5bfdaa5739e200f6, 0xcabbf18c438c534f},
    {2, 4, "random", 1, 0x5fff3f04c20ca0ef, 0x04411d1be7aafeda, 0xc6e98327bb269ae2, 0xbe67bbcece2724b5},
    {2, 4, "random", 4, 0x5fff3f04c20ca0ef, 0x04411d1be7aafeda, 0x8ea34b4f5f0efa7c, 0xbe67bbcece2724b5},
    {2, 4, "least_outstanding", 1, 0x32f46c2f44eef3e6, 0x5a094a744fd247a6, 0x8807511284739e6e, 0x9b4486aa51f7c2c0},
    {2, 4, "least_outstanding", 4, 0x32f46c2f44eef3e6, 0x5a094a744fd247a6, 0xe336a827ba30e512, 0x9b4486aa51f7c2c0},
    {2, 4, "power_of_two", 1, 0xae836a1082074c79, 0x1e5058edecaff3bb, 0x872e09aa96fc35e9, 0xf17ba8949a665512},
    {2, 4, "power_of_two", 4, 0xae836a1082074c79, 0x1e5058edecaff3bb, 0xd0c8c2699eb19f55, 0xf17ba8949a665512},
    {2, 4, "warm_affinity", 1, 0x32f46c2f44eef3e6, 0x5a094a744fd247a6, 0x8807511284739e6e, 0x9b4486aa51f7c2c0},
    {2, 4, "warm_affinity", 4, 0x32f46c2f44eef3e6, 0x5a094a744fd247a6, 0xe336a827ba30e512, 0x9b4486aa51f7c2c0},
    {2, 5, "round_robin", 1, 0x048460143d99b00e, 0x445755a5dc9625c5, 0xf8ec826bffccb136, 0xa57e0be1ab10b606},
    {2, 5, "round_robin", 4, 0x048460143d99b00e, 0x445755a5dc9625c5, 0x81a41bdee6856690, 0xa57e0be1ab10b606},
    {2, 5, "random", 1, 0xeac51361c6c59859, 0xd0b987091e72d611, 0x98684fbf4fd4aec3, 0xeb49927f6b5bb9e9},
    {2, 5, "random", 4, 0xeac51361c6c59859, 0xd0b987091e72d611, 0xd277c98a4d1fde5f, 0xeb49927f6b5bb9e9},
    {2, 5, "least_outstanding", 1, 0xbedf738583815d4f, 0x93e16cd4bfe6bc44, 0xd540491e9b132468, 0x904767a5d563b969},
    {2, 5, "least_outstanding", 4, 0xbedf738583815d4f, 0x93e16cd4bfe6bc44, 0xc2e94ea4bbafe51a, 0x904767a5d563b969},
    {2, 5, "power_of_two", 1, 0xc1543790da5f46d2, 0x3f0bf551234d892d, 0xd5e2b4f942e81f6b, 0x7758886307e47887},
    {2, 5, "power_of_two", 4, 0xc1543790da5f46d2, 0x3f0bf551234d892d, 0x3feea496448bd92b, 0x7758886307e47887},
    {2, 5, "warm_affinity", 1, 0xbedf738583815d4f, 0x93e16cd4bfe6bc44, 0xd540491e9b132468, 0x904767a5d563b969},
    {2, 5, "warm_affinity", 4, 0xbedf738583815d4f, 0x93e16cd4bfe6bc44, 0xc2e94ea4bbafe51a, 0x904767a5d563b969},
    {4, 0, "round_robin", 1, 0x0ad7f6953bc77957, 0x8fdea42a6af33661, 0x583541059fb585e5, 0xe1b9dede8119a1eb},
    {4, 0, "round_robin", 4, 0x0ad7f6953bc77957, 0x8fdea42a6af33661, 0x495f96da550b9723, 0xe1b9dede8119a1eb},
    {4, 0, "random", 1, 0x2fe2da8b5f82cf07, 0x61ecc63ffe79071f, 0xa1ba71c32bb26a91, 0xe820de823932f16b},
    {4, 0, "random", 4, 0x2fe2da8b5f82cf07, 0x61ecc63ffe79071f, 0x52efa39ea0af074b, 0xe820de823932f16b},
    {4, 0, "least_outstanding", 1, 0x77604b06230093d2, 0x53a68c5b4eb274ee, 0xff528d3038245847, 0xedeb24a836abec8d},
    {4, 0, "least_outstanding", 4, 0x77604b06230093d2, 0x53a68c5b4eb274ee, 0xa402142c6637512d, 0xedeb24a836abec8d},
    {4, 0, "power_of_two", 1, 0xe5d10047d6182545, 0x11032a7471773cf7, 0xf7067dc88ea73eda, 0xffd09f9581433c16},
    {4, 0, "power_of_two", 4, 0xe5d10047d6182545, 0x11032a7471773cf7, 0x5a6deb187facf168, 0xffd09f9581433c16},
    {4, 0, "warm_affinity", 1, 0x77604b06230093d2, 0x53a68c5b4eb274ee, 0xff528d3038245847, 0xedeb24a836abec8d},
    {4, 0, "warm_affinity", 4, 0x77604b06230093d2, 0x53a68c5b4eb274ee, 0xa402142c6637512d, 0xedeb24a836abec8d},
    {4, 1, "round_robin", 1, 0x40403dad35b16018, 0x29b8a55a0167f27f, 0x07ad5fd9e3e76899, 0xb4a1663d570cfa31},
    {4, 1, "round_robin", 4, 0x40403dad35b16018, 0x29b8a55a0167f27f, 0x3793da5d7e35cb0f, 0xb4a1663d570cfa31},
    {4, 1, "random", 1, 0xf5e8296bc1a32350, 0xa717bc02125df95b, 0xa8d038dd5edf1881, 0x910b0a0485fd11b3},
    {4, 1, "random", 4, 0xf5e8296bc1a32350, 0xa717bc02125df95b, 0xcd5036b8461bfcc3, 0x910b0a0485fd11b3},
    {4, 1, "least_outstanding", 1, 0x256042618db25c5d, 0x6943e46f0dc7f9ea, 0x01e331ce61814549, 0xfc0b42e941acef3a},
    {4, 1, "least_outstanding", 4, 0x256042618db25c5d, 0x6943e46f0dc7f9ea, 0x96d1d001abd64535, 0xfc0b42e941acef3a},
    {4, 1, "power_of_two", 1, 0xac7ce64813530c53, 0x5cf2a5acbe0ba817, 0xee3a24d381019c07, 0xc5dcf0e990c559ce},
    {4, 1, "power_of_two", 4, 0xac7ce64813530c53, 0x5cf2a5acbe0ba817, 0x6c06855bd2d0f571, 0xc5dcf0e990c559ce},
    {4, 1, "warm_affinity", 1, 0x256042618db25c5d, 0x6943e46f0dc7f9ea, 0x01e331ce61814549, 0xfc0b42e941acef3a},
    {4, 1, "warm_affinity", 4, 0x256042618db25c5d, 0x6943e46f0dc7f9ea, 0x96d1d001abd64535, 0xfc0b42e941acef3a},
    {4, 2, "round_robin", 1, 0xfb6160c192cf3ff0, 0x7ffd17bf0f28b086, 0xf32ee7f699cd9cc3, 0x4f293fdef6dab952},
    {4, 2, "round_robin", 4, 0xfb6160c192cf3ff0, 0x7ffd17bf0f28b086, 0xc196b2e9a2dd7d71, 0x4f293fdef6dab952},
    {4, 2, "random", 1, 0xc83f9b34956a407d, 0xe2e5aa6f5f22af40, 0x5d1677ee8559d039, 0x2968e340f0dd8a26},
    {4, 2, "random", 4, 0xc83f9b34956a407d, 0xe2e5aa6f5f22af40, 0x5d5827f1c8d1b9b9, 0x2968e340f0dd8a26},
    {4, 2, "least_outstanding", 1, 0xc95f7dea75566e30, 0x0bf96537f1ac8acc, 0x0893903406927939, 0x0acbc5074d1ffed5},
    {4, 2, "least_outstanding", 4, 0xc95f7dea75566e30, 0x0bf96537f1ac8acc, 0x21a38a3ea811ed6f, 0x0acbc5074d1ffed5},
    {4, 2, "power_of_two", 1, 0x99ece81dfa01b1d8, 0x3efa5a66a64938ba, 0xc9f4c98aef0bc4c8, 0xce195667e07461ea},
    {4, 2, "power_of_two", 4, 0x99ece81dfa01b1d8, 0x3efa5a66a64938ba, 0x9b6ad7239b37759a, 0xce195667e07461ea},
    {4, 2, "warm_affinity", 1, 0x84daf0b7b4a0721a, 0x0bf96537f1ac8acc, 0x6a87cd23f0c15ec7, 0x0acbc5074d1ffed5},
    {4, 2, "warm_affinity", 4, 0x84daf0b7b4a0721a, 0x0bf96537f1ac8acc, 0x33bf22b3a122f8f7, 0x0acbc5074d1ffed5},
    {4, 3, "round_robin", 1, 0x5c26749f7057620b, 0x748fbae3548ad785, 0x078f562ee8f2c03a, 0xd5e96c49f5fc0fe6},
    {4, 3, "round_robin", 4, 0x5c26749f7057620b, 0x748fbae3548ad785, 0x202fae8ac523a7ea, 0xd5e96c49f5fc0fe6},
    {4, 3, "random", 1, 0x77e8460d1667cb60, 0x6143050d728b50b0, 0x7f0adcfbf87c9546, 0x1ae8f2f120bb96f6},
    {4, 3, "random", 4, 0x77e8460d1667cb60, 0x6143050d728b50b0, 0xa0b409c16c8660fc, 0x1ae8f2f120bb96f6},
    {4, 3, "least_outstanding", 1, 0x74c986a6671258cf, 0xce0fe19e7824b686, 0x5f7d8e579d177650, 0x01b32668f9a36290},
    {4, 3, "least_outstanding", 4, 0x74c986a6671258cf, 0xce0fe19e7824b686, 0x93d47508ddd1ae94, 0x01b32668f9a36290},
    {4, 3, "power_of_two", 1, 0x34ea58eaf16517f9, 0xbb521b3f9353276a, 0xda3c20bf4f3dafaf, 0x6b1beacaf9869227},
    {4, 3, "power_of_two", 4, 0x34ea58eaf16517f9, 0xbb521b3f9353276a, 0xf279bc764299c869, 0x6b1beacaf9869227},
    {4, 3, "warm_affinity", 1, 0x74c986a6671258cf, 0xce0fe19e7824b686, 0x5f7d8e579d177650, 0x01b32668f9a36290},
    {4, 3, "warm_affinity", 4, 0x74c986a6671258cf, 0xce0fe19e7824b686, 0x93d47508ddd1ae94, 0x01b32668f9a36290},
    {4, 4, "round_robin", 1, 0x55cd3bf1c88d2b71, 0x88a40d236a6fda59, 0xe31b6cd0d7ff41cb, 0x6c8a18fcffdf53e2},
    {4, 4, "round_robin", 4, 0x55cd3bf1c88d2b71, 0x88a40d236a6fda59, 0xb3c808dd71ff01cd, 0x6c8a18fcffdf53e2},
    {4, 4, "random", 1, 0xd54ad8bdc07ecfab, 0x64265cf3591c3562, 0x0debd0ae17562c5d, 0x5b005f327d5fcab5},
    {4, 4, "random", 4, 0xd54ad8bdc07ecfab, 0x64265cf3591c3562, 0x35cde6d1545d0741, 0x5b005f327d5fcab5},
    {4, 4, "least_outstanding", 1, 0x9e87da6b07a79539, 0x6521389776d5ba72, 0xfe606b8af6af1600, 0x9ea7c0662e1de956},
    {4, 4, "least_outstanding", 4, 0x9e87da6b07a79539, 0x6521389776d5ba72, 0xeba55bcebc0558ca, 0x9ea7c0662e1de956},
    {4, 4, "power_of_two", 1, 0xa2fa8f1823bf050a, 0x2b33997470dd028a, 0x462310e249c9ab7b, 0x621192e3ce7e3879},
    {4, 4, "power_of_two", 4, 0xa2fa8f1823bf050a, 0x2b33997470dd028a, 0xf3325d5a19fa6a63, 0x621192e3ce7e3879},
    {4, 4, "warm_affinity", 1, 0x9e87da6b07a79539, 0x6521389776d5ba72, 0xfe606b8af6af1600, 0x9ea7c0662e1de956},
    {4, 4, "warm_affinity", 4, 0x9e87da6b07a79539, 0x6521389776d5ba72, 0xeba55bcebc0558ca, 0x9ea7c0662e1de956},
    {4, 5, "round_robin", 1, 0x20efc7deb6f19ca7, 0xeae052e392b8c91c, 0x522e8f2c838417d7, 0x2b50bc6f43e4d172},
    {4, 5, "round_robin", 4, 0x20efc7deb6f19ca7, 0xeae052e392b8c91c, 0x2d0b5a1ef8487075, 0x2b50bc6f43e4d172},
    {4, 5, "random", 1, 0x73b29cf4ba9bc536, 0xd582aa0350f52cc8, 0x83c7ea0a26a4300c, 0x642ca4e67e8834ed},
    {4, 5, "random", 4, 0x73b29cf4ba9bc536, 0xd582aa0350f52cc8, 0x0de8f747992345b4, 0x642ca4e67e8834ed},
    {4, 5, "least_outstanding", 1, 0xeb58532e997f6e8b, 0xa6f148c571497f63, 0x569e938ae705a4b7, 0x6f020dbda5145d44},
    {4, 5, "least_outstanding", 4, 0xeb58532e997f6e8b, 0xa6f148c571497f63, 0x5c8f85a14ae4993d, 0x6f020dbda5145d44},
    {4, 5, "power_of_two", 1, 0xf20ed3197ac35973, 0xd889023050dbf4f3, 0xf4598ca37d014753, 0x6d84af130271a1f8},
    {4, 5, "power_of_two", 4, 0xf20ed3197ac35973, 0xd889023050dbf4f3, 0x13ff966a6d777ad5, 0x6d84af130271a1f8},
    {4, 5, "warm_affinity", 1, 0xeb58532e997f6e8b, 0xa6f148c571497f63, 0x569e938ae705a4b7, 0x6f020dbda5145d44},
    {4, 5, "warm_affinity", 4, 0xeb58532e997f6e8b, 0xa6f148c571497f63, 0x5c8f85a14ae4993d, 0x6f020dbda5145d44},
    {8, 0, "round_robin", 1, 0x3af75cc82c6920e2, 0x2164bda7b32ac2f2, 0xc52fada38cdcda4a, 0xa5f31b65e61fa901},
    {8, 0, "round_robin", 4, 0x3af75cc82c6920e2, 0x2164bda7b32ac2f2, 0x426de9d744358538, 0xa5f31b65e61fa901},
    {8, 0, "random", 1, 0xfe7b9551c5af94d8, 0xeac7d6b29137639b, 0x18a22e0462c6237d, 0x4b1877ed5c32aadc},
    {8, 0, "random", 4, 0xfe7b9551c5af94d8, 0xeac7d6b29137639b, 0x49cd79ee85630a73, 0x4b1877ed5c32aadc},
    {8, 0, "least_outstanding", 1, 0x50c13b30710a4500, 0xb38eaadc594d74e1, 0x9b56625f12c555aa, 0x0f10e3cfafe12e2b},
    {8, 0, "least_outstanding", 4, 0x50c13b30710a4500, 0xb38eaadc594d74e1, 0x04d82c7bb4080cc2, 0x0f10e3cfafe12e2b},
    {8, 0, "power_of_two", 1, 0x61a32fc50403939e, 0x47282d56d2d58374, 0x648317e9c4bec49f, 0x5b81ab48da36d140},
    {8, 0, "power_of_two", 4, 0x61a32fc50403939e, 0x47282d56d2d58374, 0xd583c31492f28113, 0x5b81ab48da36d140},
    {8, 0, "warm_affinity", 1, 0x50c13b30710a4500, 0xb38eaadc594d74e1, 0x9b56625f12c555aa, 0x0f10e3cfafe12e2b},
    {8, 0, "warm_affinity", 4, 0x50c13b30710a4500, 0xb38eaadc594d74e1, 0x04d82c7bb4080cc2, 0x0f10e3cfafe12e2b},
    {8, 1, "round_robin", 1, 0x0dc951e6641717e5, 0x678e04a40dfbf2ac, 0x4104b5e8d3b48c7a, 0x305bf7f0947bdcd8},
    {8, 1, "round_robin", 4, 0x0dc951e6641717e5, 0x678e04a40dfbf2ac, 0xfd61490a512354b6, 0x305bf7f0947bdcd8},
    {8, 1, "random", 1, 0x6679ea29b96dcd19, 0xee120b2e5b66c0fb, 0x6a69f1aeb012eaaa, 0x82baf0d7ef37b3e0},
    {8, 1, "random", 4, 0x6679ea29b96dcd19, 0xee120b2e5b66c0fb, 0x8bfd84c865e072c2, 0x82baf0d7ef37b3e0},
    {8, 1, "least_outstanding", 1, 0x7b15b3c1b906d9b8, 0xe7892de965c2f8dc, 0x240e4b2695e587c1, 0xde98a05b338a17de},
    {8, 1, "least_outstanding", 4, 0x7b15b3c1b906d9b8, 0xe7892de965c2f8dc, 0x5ee937df14359bb5, 0xde98a05b338a17de},
    {8, 1, "power_of_two", 1, 0xb8c3ed3f04ceceda, 0x3e11272a06986ff9, 0xb2155628925a236c, 0x144a66435da672f3},
    {8, 1, "power_of_two", 4, 0xb8c3ed3f04ceceda, 0x3e11272a06986ff9, 0x8e9d17c45e586818, 0x144a66435da672f3},
    {8, 1, "warm_affinity", 1, 0x7b15b3c1b906d9b8, 0xe7892de965c2f8dc, 0x240e4b2695e587c1, 0xde98a05b338a17de},
    {8, 1, "warm_affinity", 4, 0x7b15b3c1b906d9b8, 0xe7892de965c2f8dc, 0x5ee937df14359bb5, 0xde98a05b338a17de},
    {8, 2, "round_robin", 1, 0x35a182bf44b5665d, 0xb0758035e0b2968a, 0xbd03f6da0f107ad3, 0x34282af2948ef9ca},
    {8, 2, "round_robin", 4, 0x35a182bf44b5665d, 0xb0758035e0b2968a, 0xad07812ebc7a3fc7, 0x34282af2948ef9ca},
    {8, 2, "random", 1, 0x882bc2bd1f819d51, 0xfbd0742be3079c06, 0x55abb4271cb8a438, 0x436e8fc425841bcf},
    {8, 2, "random", 4, 0x882bc2bd1f819d51, 0xfbd0742be3079c06, 0xdb8d20ee8ae91076, 0x436e8fc425841bcf},
    {8, 2, "least_outstanding", 1, 0xa3d5d0c626f1621d, 0xcf13369db3036c0a, 0x4802bd7bf0549676, 0x7cde52f907b49658},
    {8, 2, "least_outstanding", 4, 0xa3d5d0c626f1621d, 0xcf13369db3036c0a, 0xc9b3373d4fe1048e, 0x7cde52f907b49658},
    {8, 2, "power_of_two", 1, 0xc0ecb81a12159cd7, 0x20225e8b19d192b4, 0x45e85fd4a1b08b84, 0xd0452aca642ebeb8},
    {8, 2, "power_of_two", 4, 0xc0ecb81a12159cd7, 0x20225e8b19d192b4, 0x672b817e135a4268, 0xd0452aca642ebeb8},
    {8, 2, "warm_affinity", 1, 0xc057b6b2f0666f25, 0xcf13369db3036c0a, 0x327373bfefc1b448, 0x7cde52f907b49658},
    {8, 2, "warm_affinity", 4, 0xc057b6b2f0666f25, 0xcf13369db3036c0a, 0xff300b29c6a9f660, 0x7cde52f907b49658},
    {8, 3, "round_robin", 1, 0x4a3daf4b1e30644f, 0x924d67c128f434c3, 0xf5f6bd2d5e21b49a, 0x4064fa182d1fa0f1},
    {8, 3, "round_robin", 4, 0x4a3daf4b1e30644f, 0x924d67c128f434c3, 0x6aeec1300d608c3c, 0x4064fa182d1fa0f1},
    {8, 3, "random", 1, 0x0e26acbc40fd3276, 0x2b2f834c3e308b2e, 0x8514ec490460f866, 0x6a37ecac8648a190},
    {8, 3, "random", 4, 0x0e26acbc40fd3276, 0x2b2f834c3e308b2e, 0xca99a5de1054e03e, 0x6a37ecac8648a190},
    {8, 3, "least_outstanding", 1, 0x1ed197b951440341, 0x7753f8a6f08d8072, 0x9a688081762db6e8, 0xaa888f412fc7679b},
    {8, 3, "least_outstanding", 4, 0x1ed197b951440341, 0x7753f8a6f08d8072, 0xedc0b63021b752c2, 0xaa888f412fc7679b},
    {8, 3, "power_of_two", 1, 0xd09326a5c47caffe, 0x5fe067611c3be69a, 0xbbed56014b02dcda, 0xee392a0201aa1a20},
    {8, 3, "power_of_two", 4, 0xd09326a5c47caffe, 0x5fe067611c3be69a, 0xe777ce4e9c2d6380, 0xee392a0201aa1a20},
    {8, 3, "warm_affinity", 1, 0xc475a5eae10c6716, 0x7753f8a6f08d8072, 0x42bd69d3a467973c, 0x23ba4b01259c8313},
    {8, 3, "warm_affinity", 4, 0xc475a5eae10c6716, 0x7753f8a6f08d8072, 0x65bee29a05f2200c, 0x23ba4b01259c8313},
    {8, 4, "round_robin", 1, 0xee161ea3e68a0481, 0xa1948768caa7a449, 0x987721ea59c6a15c, 0xbe9bfab6714068d8},
    {8, 4, "round_robin", 4, 0xee161ea3e68a0481, 0xa1948768caa7a449, 0xc242a576687b465c, 0xbe9bfab6714068d8},
    {8, 4, "random", 1, 0x8681a9392e0ff4d2, 0xa5ed3ee3d1235fa8, 0x1c5cf33da5f5cae3, 0x43d4b20be5bb510d},
    {8, 4, "random", 4, 0x8681a9392e0ff4d2, 0xa5ed3ee3d1235fa8, 0x7f765077454e86af, 0x43d4b20be5bb510d},
    {8, 4, "least_outstanding", 1, 0xba2700826b2902c1, 0xbb6233a4c03ad831, 0xd5b2f85b2b908c08, 0xf82b03baa8e48834},
    {8, 4, "least_outstanding", 4, 0xba2700826b2902c1, 0xbb6233a4c03ad831, 0x247986b68e3a39aa, 0xf82b03baa8e48834},
    {8, 4, "power_of_two", 1, 0x6e36f4d1ff162e46, 0xf143426c9b4db1b4, 0x6ee6372dc2694c32, 0xf117c97cd1d29f4e},
    {8, 4, "power_of_two", 4, 0x6e36f4d1ff162e46, 0xf143426c9b4db1b4, 0xcee465d39cd92980, 0xf117c97cd1d29f4e},
    {8, 4, "warm_affinity", 1, 0xad417924111a0948, 0xb4f746955fe5c0c6, 0x5a6dc742108c14ce, 0x33681cb61d635d87},
    {8, 4, "warm_affinity", 4, 0xad417924111a0948, 0xb4f746955fe5c0c6, 0x97546a73410e3ef0, 0x33681cb61d635d87},
    {8, 5, "round_robin", 1, 0xf72fa0912693c4db, 0x6abd504af51637b9, 0x9c2e2d8a4b504cc0, 0x27b0c61ac7f99994},
    {8, 5, "round_robin", 4, 0xf72fa0912693c4db, 0x6abd504af51637b9, 0x7ca5100352017e44, 0x27b0c61ac7f99994},
    {8, 5, "random", 1, 0xfac6ae6e45462baa, 0x38edfda3771a9ebf, 0x1dcb6890d95c77a8, 0x0b64cbf78dda85f9},
    {8, 5, "random", 4, 0xfac6ae6e45462baa, 0x38edfda3771a9ebf, 0x8d38f42ff7f88598, 0x0b64cbf78dda85f9},
    {8, 5, "least_outstanding", 1, 0x39063b0b2dc8aafd, 0x2595d63cb932ff49, 0x74a606dc731af2c7, 0xa4378b52f8512f03},
    {8, 5, "least_outstanding", 4, 0x39063b0b2dc8aafd, 0x2595d63cb932ff49, 0x0286720b30165357, 0xa4378b52f8512f03},
    {8, 5, "power_of_two", 1, 0x609e9758b585719b, 0xcb9119f7ae8735b2, 0x0d4d56ba6d9fdce7, 0xd8e82ce4c2b8f89f},
    {8, 5, "power_of_two", 4, 0x609e9758b585719b, 0xcb9119f7ae8735b2, 0xf7954afb5c18b44f, 0xd8e82ce4c2b8f89f},
    {8, 5, "warm_affinity", 1, 0xd5fe9dc1dc62cc39, 0x2595d63cb932ff49, 0xb7264e63fb2c5ba1, 0xa4378b52f8512f03},
    {8, 5, "warm_affinity", 4, 0xd5fe9dc1dc62cc39, 0x2595d63cb932ff49, 0xcd1105b9f4990ddf, 0xa4378b52f8512f03},
};
// clang-format on

constexpr std::size_t kNodeCounts[] = {1, 2, 4, 8};
constexpr int kDraws = 6;
constexpr RouterPolicy kPolicies[] = {
    RouterPolicy::kRoundRobin, RouterPolicy::kRandom,
    RouterPolicy::kLeastOutstanding, RouterPolicy::kPowerOfTwo,
    RouterPolicy::kWarmAffinity};

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Draw `draw` of the grid. Every draw injects cold-start, crash and
/// straggler faults; odd draws also crash nodes. The attempt budget
/// cycles 1..4, the jitter cycles {0, 1, uniform}, two draws back off
/// from 0.5 ms, and four arm a timeout. A small node keeps every node
/// count queueing.
ClusterConfig draw_config(int draw) {
  Rng rng(0x7E1E0000u + static_cast<std::uint64_t>(draw));
  ClusterConfig config;
  config.horizon_ms = 1000.0;
  config.offered_rps = 250.0 + rng.uniform(0.0, 250.0);
  const TimeMs keep_alive[] = {5.0, 200.0, 10000.0};
  config.keep_alive_ms = keep_alive[draw % 3];
  const ArrivalKind kinds[] = {ArrivalKind::kPoisson, ArrivalKind::kUniform,
                               ArrivalKind::kBurst};
  config.arrivals = kinds[(draw / 2) % 3];
  config.seed = 0x5EED0000u + static_cast<std::uint64_t>(draw);
  config.faults.cold_start_failure = rng.uniform(0.02, 0.2);
  config.faults.crash = rng.uniform(0.02, 0.2);
  config.faults.crash_point = rng.uniform(0.1, 0.9);
  config.faults.straggler = rng.uniform(0.05, 0.3);
  config.faults.straggler_multiplier = rng.uniform(2.0, 6.0);
  if (draw % 2 == 1) config.faults.node_crash = rng.uniform(0.3, 0.9);
  config.faults.seed = rng();
  config.retry.max_attempts = 1 + static_cast<std::uint32_t>(draw % 4);
  switch (draw % 3) {
    case 0: config.retry.jitter = 0.0; break;
    case 1: config.retry.jitter = 1.0; break;
    default: config.retry.jitter = rng.uniform(0.0, 0.8); break;
  }
  if (draw == 2 || draw == 5) config.retry.base_backoff_ms = 0.5;
  if (draw % 3 != 0) config.retry.timeout_ms = rng.uniform(60.0, 400.0);
  return config;
}

RuntimeParams small_node(const RuntimeParams& params) {
  RuntimeParams p = params;
  p.node_cpus = 4;
  return p;
}

std::string result_digest(const ClusterResult& r) {
  std::string out;
  for (std::size_t v : {r.offered, r.completed, r.cold_starts, r.failed,
                        r.retried, r.timed_out, r.dropped, r.peak_instances,
                        r.peak_queue, r.node_crashes}) {
    out += std::to_string(v) + ' ';
  }
  for (double v : {r.achieved_rps, r.mean_ms, r.p50_ms, r.p95_ms, r.p99_ms,
                   r.mean_busy_instances, r.latency_stats.mean(),
                   r.latency_stats.variance(), r.latency_stats.min(),
                   r.latency_stats.max()}) {
    out += exact(v) + ' ';
  }
  out += std::to_string(r.request_id_base) + ' ' +
         std::to_string(r.latency_stats.count()) + '\n';
  for (const NodeResult& nr : r.node_results) {
    out += std::to_string(nr.routed) + ' ' + std::to_string(nr.completed) +
           ' ' + std::to_string(nr.cold_starts) + ' ' +
           std::to_string(nr.node_crashes) + ' ' +
           std::to_string(nr.peak_queue) + '\n';
  }
  return out;
}

void append_json(const json::Value& v, std::string& out) {
  switch (v.type()) {
    case json::Value::Type::kNumber: out += exact(v.as_number()); return;
    case json::Value::Type::kString: out += '"' + v.as_string() + '"'; return;
    case json::Value::Type::kArray:
      out += '[';
      for (const json::Value& item : v.as_array()) {
        append_json(item, out);
        out += ',';
      }
      out += ']';
      return;
    case json::Value::Type::kObject:
      out += '{';
      for (const auto& [key, item] : v.as_object()) {
        out += key + ':';
        append_json(item, out);
        out += ',';
      }
      out += '}';
      return;
    default: out += json::dump(v); return;
  }
}

std::string recorder_digest(const obs::FlightRecorder& recorder,
                            bool sorted) {
  std::vector<std::string> lines;
  for (const obs::RecorderEvent& e : recorder.snapshot()) {
    lines.push_back(std::string(obs::to_string(e.kind)) + ' ' +
                    std::to_string(e.request) + ' ' +
                    std::to_string(e.attempt) + ' ' + std::to_string(e.node) +
                    ' ' + exact(e.ts_ms) + ' ' + exact(e.value) + '\n');
  }
  if (sorted) std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

std::string trace_digest(const obs::Tracer& tracer) {
  std::vector<std::string> lines;
  for (const obs::TraceEvent& e : tracer.events()) {
    std::string line = e.name + ' ' + e.category + ' ' + e.phase + ' ' +
                       std::to_string(e.pid) + ' ' + std::to_string(e.tid) +
                       ' ' + exact(e.ts_us) + ' ' + exact(e.dur_us) + ' ' +
                       (e.has_id ? std::to_string(e.id) : "-");
    for (const auto& [key, value] : e.num_args) {
      line += ' ' + key + '=' + exact(value);
    }
    lines.push_back(line + '\n');
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

std::string golden_row(const TelemetryGolden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%zu, %d, \"%s\", %zu, 0x%016llx, 0x%016llx, 0x%016llx, "
                "0x%016llx},",
                g.nodes, g.draw, g.policy, g.threads,
                static_cast<unsigned long long>(g.result_fnv),
                static_cast<unsigned long long>(g.registry_fnv),
                static_cast<unsigned long long>(g.recorder_fnv),
                static_cast<unsigned long long>(g.trace_fnv));
  return buf;
}

struct GridCell {
  std::size_t nodes;
  int draw;
};

void PrintTo(const GridCell& cell, std::ostream* os) {
  *os << "nodes " << cell.nodes << ", draw " << cell.draw;
}

std::vector<GridCell> grid_cells() {
  std::vector<GridCell> cells;
  for (std::size_t nodes : kNodeCounts) {
    for (int draw = 0; draw < kDraws; ++draw) cells.push_back({nodes, draw});
  }
  return cells;
}

class ClusterTelemetryGoldenTest
    : public ::testing::TestWithParam<GridCell> {};

TEST_P(ClusterTelemetryGoldenTest, TelemetryMatchesTheRecordedTable) {
  const GridCell cell = GetParam();
  SystemOptions opts;
  opts.noise.jitter_sigma = 0.0;
  opts.noise.thread_contention = 0.0;
  opts.noise.run_sigma = 0.0;
  const auto backend = make_system("Chiron", make_finra(5), opts);
  const RuntimeParams params = small_node(opts.params);

  ClusterConfig base = draw_config(cell.draw);
  base.nodes = cell.nodes;
  Rng arrival_rng(base.seed);
  const std::vector<TimeMs> arrivals =
      ArrivalGenerator(base.arrivals, base.offered_rps, arrival_rng.split())
          .generate(base.horizon_ms);
  const std::uint64_t id_base = 1000000u * (cell.draw + 1);

  std::size_t checked = 0;
  for (const RouterPolicy policy : kPolicies) {
    for (const std::size_t threads : {1u, 4u}) {
      if (cell.nodes == 1 &&
          (policy != RouterPolicy::kRoundRobin || threads != 1)) {
        continue;
      }
      SCOPED_TRACE(std::string(to_string(policy)) + " threads " +
                   std::to_string(threads));
      obs::MetricsRegistry metrics;
      obs::Tracer tracer;
      tracer.set_enabled(true);
      obs::FlightRecorder recorder(1u << 17);
      recorder.set_enabled(true);
      ClusterConfig config = base;
      config.router = policy;
      config.sim_threads = threads;
      config.metrics = &metrics;
      config.tracer = &tracer;
      config.recorder = &recorder;
      const ClusterResult result = ClusterSimulator(config, params)
                                       .run_prepared(*backend, 1, arrivals,
                                                     id_base);
      ASSERT_EQ(recorder.dropped_count(), 0u);
      std::string registry;
      append_json(metrics.to_json(), registry);
      const TelemetryGolden actual{
          cell.nodes,
          cell.draw,
          to_string(policy),
          threads,
          fnv1a64(result_digest(result)),
          fnv1a64(registry),
          fnv1a64(recorder_digest(recorder, threads > 1)),
          fnv1a64(trace_digest(tracer))};
      const TelemetryGolden* want = nullptr;
      for (const TelemetryGolden& g : kTelemetryGolden) {
        if (g.nodes == cell.nodes && g.draw == cell.draw &&
            std::string(g.policy) == actual.policy && g.threads == threads) {
          want = &g;
        }
      }
      if (want == nullptr) {
        ADD_FAILURE() << "no golden row; now reads\n" << golden_row(actual);
        continue;
      }
      EXPECT_TRUE(want->result_fnv == actual.result_fnv &&
                  want->registry_fnv == actual.registry_fnv &&
                  want->recorder_fnv == actual.recorder_fnv &&
                  want->trace_fnv == actual.trace_fnv)
          << "now reads\n" << golden_row(actual);
      ++checked;
    }
  }
  EXPECT_EQ(checked, cell.nodes == 1 ? 1u : 2u * std::size(kPolicies));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClusterTelemetryGoldenTest, ::testing::ValuesIn(grid_cells()),
    [](const ::testing::TestParamInfo<GridCell>& info) {
      return "nodes" + std::to_string(info.param.nodes) + "_draw" +
             std::to_string(info.param.draw);
    });

}  // namespace
}  // namespace chiron
