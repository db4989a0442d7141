// Absolute pins on PGP's output. PgpParity compares the pool and cache
// variants with each other, and all of them run the same KL evaluator, so
// a change to the evaluator, the stage layout or Eq. (2) that moves every
// variant together would pass it. This table holds each case's plan
// digest, predicted latency, process count, search telemetry and (on the
// sequential search) the Predictor's cache hit and miss counts, as the
// planner produced them before the KL evaluator was rebuilt on
// layout_stage. Any change to a row is a change to what PGP plans. The
// cache columns count only CPU-capped wraps' group simulations (the
// min-CPU bisection), the one path the cache still serves.
//
// Cases: the evaluation suite plus FINRA-30, under native, MPK and pool
// isolation, at six SLOs from infeasible to generous, each run with
// deploy_threads = 1 and 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/pgp.h"
#include "core/plan_io.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

constexpr IsolationMode kNative = IsolationMode::kNative;
constexpr IsolationMode kMpk = IsolationMode::kMpk;
constexpr IsolationMode kPool = IsolationMode::kPool;

struct Golden {
  const char* workflow;
  IsolationMode mode;
  TimeMs slo;
  std::uint64_t plan_fnv;  ///< FNV-1a-64 of serialize_plan(plan)
  const char* predicted;   ///< predicted_latency_ms as "%.17g"
  bool slo_met;
  std::size_t processes;
  std::size_t outer_iterations;
  std::size_t kl_evaluations;
  std::size_t predictor_calls;
  std::uint64_t cache_hits;  ///< at deploy_threads = 1 only
  std::uint64_t cache_misses;
};

// clang-format off
const Golden kGolden[] = {
    {"SocialNetwork", kNative, 60, 0x4a3dca2828e3d376, "17.490110773983044",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kNative, 120, 0x4a3dca2828e3d376, "17.490110773983044",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kNative, 250, 0x4a3dca2828e3d376, "17.490110773983044",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kNative, 400, 0x4a3dca2828e3d376, "17.490110773983044",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kNative, 1000, 0x4a3dca2828e3d376, "17.490110773983044",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kNative, 5000, 0x4a3dca2828e3d376, "17.490110773983044",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kMpk, 60, 0x35d32d86e5896a89, "20.117526049441757",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kMpk, 120, 0x35d32d86e5896a89, "20.117526049441757",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kMpk, 250, 0x35d32d86e5896a89, "20.117526049441757",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kMpk, 400, 0x35d32d86e5896a89, "20.117526049441757",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kMpk, 1000, 0x35d32d86e5896a89, "20.117526049441757",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kMpk, 5000, 0x35d32d86e5896a89, "20.117526049441757",
     true, 1, 1, 0, 5, 0, 0},
    {"SocialNetwork", kPool, 60, 0xd4f3f358eb782e03, "17.091000000000001",
     true, 1, 1, 0, 6, 0, 0},
    {"SocialNetwork", kPool, 120, 0xd4f3f358eb782e03, "17.091000000000001",
     true, 1, 1, 0, 6, 0, 0},
    {"SocialNetwork", kPool, 250, 0xd4f3f358eb782e03, "17.091000000000001",
     true, 1, 1, 0, 6, 0, 0},
    {"SocialNetwork", kPool, 400, 0xd4f3f358eb782e03, "17.091000000000001",
     true, 1, 1, 0, 6, 0, 0},
    {"SocialNetwork", kPool, 1000, 0xd4f3f358eb782e03, "17.091000000000001",
     true, 1, 1, 0, 6, 0, 0},
    {"SocialNetwork", kPool, 5000, 0xd4f3f358eb782e03, "17.091000000000001",
     true, 1, 1, 0, 6, 0, 0},
    {"MovieReviewing", kNative, 60, 0x3b13ee7834c4b2fd, "13.828290026178395",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kNative, 120, 0x3b13ee7834c4b2fd, "13.828290026178395",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kNative, 250, 0x3b13ee7834c4b2fd, "13.828290026178395",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kNative, 400, 0x3b13ee7834c4b2fd, "13.828290026178395",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kNative, 1000, 0x3b13ee7834c4b2fd, "13.828290026178395",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kNative, 5000, 0x3b13ee7834c4b2fd, "13.828290026178395",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kMpk, 60, 0xf0344c2e6e3a1a22, "16.174156339544439",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kMpk, 120, 0xf0344c2e6e3a1a22, "16.174156339544439",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kMpk, 250, 0xf0344c2e6e3a1a22, "16.174156339544439",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kMpk, 400, 0xf0344c2e6e3a1a22, "16.174156339544439",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kMpk, 1000, 0xf0344c2e6e3a1a22, "16.174156339544439",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kMpk, 5000, 0xf0344c2e6e3a1a22, "16.174156339544439",
     true, 1, 1, 0, 5, 0, 0},
    {"MovieReviewing", kPool, 60, 0xc79569e08c341d94, "13.086000000000002",
     true, 1, 1, 0, 6, 0, 0},
    {"MovieReviewing", kPool, 120, 0xc79569e08c341d94, "13.086000000000002",
     true, 1, 1, 0, 6, 0, 0},
    {"MovieReviewing", kPool, 250, 0xc79569e08c341d94, "13.086000000000002",
     true, 1, 1, 0, 6, 0, 0},
    {"MovieReviewing", kPool, 400, 0xc79569e08c341d94, "13.086000000000002",
     true, 1, 1, 0, 6, 0, 0},
    {"MovieReviewing", kPool, 1000, 0xc79569e08c341d94, "13.086000000000002",
     true, 1, 1, 0, 6, 0, 0},
    {"MovieReviewing", kPool, 5000, 0xc79569e08c341d94, "13.086000000000002",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp", kNative, 60, 0xd9f7d60edfe65d58, "71.064000000000021",
     false, 3, 4, 47, 51, 0, 0},
    {"SLApp", kNative, 120, 0x52f02defe797a408, "86.933520000000001",
     true, 2, 2, 11, 15, 0, 4},
    {"SLApp", kNative, 250, 0xbb5d59e34ceb68d4, "127.91669524507112",
     true, 1, 1, 0, 3, 0, 0},
    {"SLApp", kNative, 400, 0xbb5d59e34ceb68d4, "127.91669524507112",
     true, 1, 1, 0, 3, 0, 0},
    {"SLApp", kNative, 1000, 0xbb5d59e34ceb68d4, "127.91669524507112",
     true, 1, 1, 0, 3, 0, 0},
    {"SLApp", kNative, 5000, 0xbb5d59e34ceb68d4, "127.91669524507112",
     true, 1, 1, 0, 3, 0, 0},
    {"SLApp", kMpk, 60, 0x12267343f36ce8c3, "71.064000000000021",
     false, 3, 4, 47, 51, 0, 0},
    {"SLApp", kMpk, 120, 0xa305794ea2f71f9f, "103.48486127999999",
     true, 2, 2, 11, 15, 0, 4},
    {"SLApp", kMpk, 250, 0x5cfac073bf9f23ff, "157.74881038681312",
     true, 1, 1, 0, 3, 0, 0},
    {"SLApp", kMpk, 400, 0x5cfac073bf9f23ff, "157.74881038681312",
     true, 1, 1, 0, 3, 0, 0},
    {"SLApp", kMpk, 1000, 0x5cfac073bf9f23ff, "157.74881038681312",
     true, 1, 1, 0, 3, 0, 0},
    {"SLApp", kMpk, 5000, 0x5cfac073bf9f23ff, "157.74881038681312",
     true, 1, 1, 0, 3, 0, 0},
    {"SLApp", kPool, 60, 0x61e614ed05984426, "56.519999999999996",
     true, 1, 1, 0, 4, 0, 0},
    {"SLApp", kPool, 120, 0x2f7ef81cbc6b71bd, "60.210000000000001",
     true, 1, 1, 0, 4, 0, 0},
    {"SLApp", kPool, 250, 0x2f7ef81cbc6b71bd, "60.210000000000001",
     true, 1, 1, 0, 4, 0, 0},
    {"SLApp", kPool, 400, 0x2f7ef81cbc6b71bd, "60.210000000000001",
     true, 1, 1, 0, 4, 0, 0},
    {"SLApp", kPool, 1000, 0x2f7ef81cbc6b71bd, "60.210000000000001",
     true, 1, 1, 0, 4, 0, 0},
    {"SLApp", kPool, 5000, 0x2f7ef81cbc6b71bd, "60.210000000000001",
     true, 1, 1, 0, 4, 0, 0},
    {"SLApp-V", kNative, 60, 0x69e3b403cdb0080e, "103.03200000000001",
     false, 4, 5, 74, 79, 0, 0},
    {"SLApp-V", kNative, 120, 0x5ecbc88fcf09fc57, "116.74080000000001",
     true, 3, 3, 30, 38, 0, 3},
    {"SLApp-V", kNative, 250, 0xdfa971b384bd1b6e, "154.19016000000005",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp-V", kNative, 400, 0xdfa971b384bd1b6e, "154.19016000000005",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp-V", kNative, 1000, 0xdfa971b384bd1b6e, "154.19016000000005",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp-V", kNative, 5000, 0xdfa971b384bd1b6e, "154.19016000000005",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp-V", kMpk, 60, 0x755a0fdf1794191d, "104.79801599999999",
     false, 4, 5, 74, 79, 0, 0},
    {"SLApp-V", kMpk, 120, 0xccd215bf4ba830de, "106.91776096000001",
     true, 4, 4, 50, 60, 8, 4},
    {"SLApp-V", kMpk, 250, 0x97209a64bb2f4a0d, "186.66904541922077",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp-V", kMpk, 400, 0x97209a64bb2f4a0d, "186.66904541922077",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp-V", kMpk, 1000, 0x97209a64bb2f4a0d, "186.66904541922077",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp-V", kMpk, 5000, 0x97209a64bb2f4a0d, "186.66904541922077",
     true, 1, 1, 0, 6, 0, 0},
    {"SLApp-V", kPool, 60, 0x5dc04aa4e32f6309, "88.290000000000006",
     false, 2, 5, 72, 77, 0, 0},
    {"SLApp-V", kPool, 120, 0xb04f1e011eaccffc, "91.102499999999992",
     true, 1, 1, 0, 7, 0, 0},
    {"SLApp-V", kPool, 250, 0xb04f1e011eaccffc, "91.102499999999992",
     true, 1, 1, 0, 7, 0, 0},
    {"SLApp-V", kPool, 400, 0xb04f1e011eaccffc, "91.102499999999992",
     true, 1, 1, 0, 7, 0, 0},
    {"SLApp-V", kPool, 1000, 0xb04f1e011eaccffc, "91.102499999999992",
     true, 1, 1, 0, 7, 0, 0},
    {"SLApp-V", kPool, 5000, 0xb04f1e011eaccffc, "91.102499999999992",
     true, 1, 1, 0, 7, 0, 0},
    {"FINRA-5", kNative, 60, 0xde6554942bac3a18, "82.373362812840099",
     false, 1, 5, 67, 72, 0, 0},
    {"FINRA-5", kNative, 120, 0xde6554942bac3a18, "82.373362812840099",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kNative, 250, 0xde6554942bac3a18, "82.373362812840099",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kNative, 400, 0xde6554942bac3a18, "82.373362812840099",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kNative, 1000, 0xde6554942bac3a18, "82.373362812840099",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kNative, 5000, 0xde6554942bac3a18, "82.373362812840099",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kMpk, 60, 0xa03bea35b1af4b97, "85.481694347838484",
     false, 4, 5, 67, 72, 0, 0},
    {"FINRA-5", kMpk, 120, 0x4e6edcd3a776874b, "88.356561242959813",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kMpk, 250, 0x4e6edcd3a776874b, "88.356561242959813",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kMpk, 400, 0x4e6edcd3a776874b, "88.356561242959813",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kMpk, 1000, 0x4e6edcd3a776874b, "88.356561242959813",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kMpk, 5000, 0x4e6edcd3a776874b, "88.356561242959813",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-5", kPool, 60, 0xc943a9d09c08c127, "71.380305035361999",
     false, 1, 5, 66, 71, 0, 0},
    {"FINRA-5", kPool, 120, 0xdaadbb344e8b2459, "75.661554620152472",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-5", kPool, 250, 0xdaadbb344e8b2459, "75.661554620152472",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-5", kPool, 400, 0xdaadbb344e8b2459, "75.661554620152472",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-5", kPool, 1000, 0xdaadbb344e8b2459, "75.661554620152472",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-5", kPool, 5000, 0xdaadbb344e8b2459, "75.661554620152472",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-50", kNative, 60, 0x4a099a1fd8dc5366, "104.39421939458845",
     false, 17, 50, 114267, 114317, 0, 0},
    {"FINRA-50", kNative, 120, 0x2d5989ba00818298, "118.9421552655954",
     true, 6, 6, 22297, 22306, 18, 6},
    {"FINRA-50", kNative, 250, 0x0e487a0b11538a45, "217.20232210310013",
     true, 2, 2, 5529, 5533, 0, 4},
    {"FINRA-50", kNative, 400, 0x0e487a0b11538a45, "217.20232210310013",
     true, 2, 2, 5529, 5533, 0, 4},
    {"FINRA-50", kNative, 1000, 0xd85e1c5a0ac04e7b, "573.37453375497569",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-50", kNative, 5000, 0xd85e1c5a0ac04e7b, "573.37453375497569",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-50", kMpk, 60, 0x1b5d4e9f0331166b, "107.26538419606671",
     false, 19, 50, 116887, 116937, 0, 0},
    {"FINRA-50", kMpk, 120, 0x3f57aaaa23821847, "118.89559138889699",
     true, 8, 8, 30906, 30917, 24, 8},
    {"FINRA-50", kMpk, 250, 0xd52991bba54b0a65, "144.53814653335456",
     true, 1, 1, 4389, 4392, 0, 4},
    {"FINRA-50", kMpk, 400, 0xd52991bba54b0a65, "144.53814653335456",
     true, 1, 1, 4389, 4392, 0, 4},
    {"FINRA-50", kMpk, 1000, 0xd52991bba54b0a65, "144.53814653335456",
     true, 1, 1, 4389, 4392, 0, 4},
    {"FINRA-50", kMpk, 5000, 0xd52991bba54b0a65, "144.53814653335456",
     true, 1, 1, 4389, 4392, 0, 4},
    {"FINRA-50", kPool, 60, 0x3cf33ed65aa848be, "87.612348165662837",
     false, 14, 50, 114328, 114378, 0, 0},
    {"FINRA-50", kPool, 120, 0xfc892cd422061b85, "108.99046800273739",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-50", kPool, 250, 0xfc892cd422061b85, "108.99046800273739",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-50", kPool, 400, 0xfc892cd422061b85, "108.99046800273739",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-50", kPool, 1000, 0xfc892cd422061b85, "108.99046800273739",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-50", kPool, 5000, 0xfc892cd422061b85, "108.99046800273739",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-100", kNative, 60, 0x2fc641fcf971e9b3, "115.54967904434832",
     false, 27, 100, 198, 298, 0, 0},
    {"FINRA-100", kNative, 120, 0x54cbbc0dd8dc5084, "118.88277651268525",
     true, 16, 16, 30, 50, 0, 16},
    {"FINRA-100", kNative, 250, 0xf36af2ddc28e89f6, "222.9053622848831",
     true, 4, 4, 6, 12, 0, 4},
    {"FINRA-100", kNative, 400, 0x56e6b2b148b57517, "315.10281591856392",
     true, 3, 3, 4, 9, 0, 3},
    {"FINRA-100", kNative, 1000, 0xa7865778927bdaf8, "580.51408088334222",
     true, 2, 2, 2, 6, 0, 4},
    {"FINRA-100", kNative, 5000, 0x510713b1a710bb50, "2330.6379587470619",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-100", kMpk, 60, 0x86e612b303ddeb2e, "118.83604744475802",
     false, 27, 100, 198, 298, 0, 0},
    {"FINRA-100", kMpk, 120, 0x521af49ea149af80, "118.63325411545026",
     true, 27, 27, 52, 84, 0, 27},
    {"FINRA-100", kMpk, 250, 0x6647ae25666428ed, "178.01286716447086",
     true, 1, 1, 0, 4, 21, 7},
    {"FINRA-100", kMpk, 400, 0x6647ae25666428ed, "178.01286716447086",
     true, 1, 1, 0, 4, 21, 7},
    {"FINRA-100", kMpk, 1000, 0x6647ae25666428ed, "178.01286716447086",
     true, 1, 1, 0, 4, 21, 7},
    {"FINRA-100", kMpk, 5000, 0x6647ae25666428ed, "178.01286716447086",
     true, 1, 1, 0, 4, 21, 7},
    {"FINRA-100", kPool, 60, 0x4a1c142d7db58d23, "97.957261855490742",
     false, 22, 100, 198, 298, 0, 0},
    {"FINRA-100", kPool, 120, 0x5a789c6707688975, "114.29898749443576",
     true, 7, 7, 12, 23, 0, 0},
    {"FINRA-100", kPool, 250, 0x0d12ab0bc2aa8e9b, "145.51134476955829",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-100", kPool, 400, 0x0d12ab0bc2aa8e9b, "145.51134476955829",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-100", kPool, 1000, 0x0d12ab0bc2aa8e9b, "145.51134476955829",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-100", kPool, 5000, 0x0d12ab0bc2aa8e9b, "145.51134476955829",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-200", kNative, 60, 0x1871269fd26c1d3c, "126.66891167077925",
     false, 36, 200, 398, 598, 0, 0},
    {"FINRA-200", kNative, 120, 0x1871269fd26c1d3c, "126.66891167077925",
     false, 36, 200, 398, 598, 0, 0},
    {"FINRA-200", kNative, 250, 0x1d3d27ea70b75d90, "237.97382626310281",
     true, 8, 8, 14, 24, 0, 8},
    {"FINRA-200", kNative, 400, 0xa041795850b781c2, "328.79379888319846",
     true, 6, 6, 10, 18, 0, 6},
    {"FINRA-200", kNative, 1000, 0xa774abf011e7a722, "596.69150049663267",
     true, 4, 4, 6, 12, 0, 4},
    {"FINRA-200", kNative, 5000, 0x2e63e12cb74cc3ac, "2342.1873062644818",
     true, 2, 2, 2, 6, 0, 4},
    {"FINRA-200", kMpk, 60, 0x41c42d3eb7628637, "132.36600057889356",
     false, 36, 200, 398, 598, 0, 0},
    {"FINRA-200", kMpk, 120, 0x41c42d3eb7628637, "132.36600057889356",
     false, 36, 200, 398, 598, 0, 0},
    {"FINRA-200", kMpk, 250, 0x855c0f6215c3bdb3, "184.21789697221521",
     true, 1, 1, 0, 4, 70, 14},
    {"FINRA-200", kMpk, 400, 0x855c0f6215c3bdb3, "184.21789697221521",
     true, 1, 1, 0, 4, 70, 14},
    {"FINRA-200", kMpk, 1000, 0x855c0f6215c3bdb3, "184.21789697221521",
     true, 1, 1, 0, 4, 70, 14},
    {"FINRA-200", kMpk, 5000, 0x855c0f6215c3bdb3, "184.21789697221521",
     true, 1, 1, 0, 4, 70, 14},
    {"FINRA-200", kPool, 60, 0x3a464d72dc2bcd7c, "109.18825251191306",
     false, 35, 200, 398, 598, 0, 0},
    {"FINRA-200", kPool, 120, 0xdfa09c839ac46d9e, "119.60536908126679",
     true, 19, 19, 36, 61, 0, 0},
    {"FINRA-200", kPool, 250, 0xf36d1fe46b68514c, "215.04941426976103",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-200", kPool, 400, 0xf36d1fe46b68514c, "215.04941426976103",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-200", kPool, 1000, 0xf36d1fe46b68514c, "215.04941426976103",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-200", kPool, 5000, 0xf36d1fe46b68514c, "215.04941426976103",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-30", kNative, 60, 0x43b5d5fc26a993ba, "99.056950675612327",
     false, 11, 30, 22249, 22279, 0, 0},
    {"FINRA-30", kNative, 120, 0xc2676ee8112592fc, "113.24528097902231",
     true, 3, 3, 2406, 2411, 0, 3},
    {"FINRA-30", kNative, 250, 0xcf31237b79df21f9, "242.20026035221809",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-30", kNative, 400, 0xcf31237b79df21f9, "242.20026035221809",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-30", kNative, 1000, 0xcf31237b79df21f9, "242.20026035221809",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-30", kNative, 5000, 0xcf31237b79df21f9, "242.20026035221809",
     true, 1, 1, 0, 3, 0, 0},
    {"FINRA-30", kMpk, 60, 0x0c2256231fb20225, "101.13874884344791",
     false, 11, 30, 23497, 23527, 0, 0},
    {"FINRA-30", kMpk, 120, 0xcd8fc512d5f1fcf4, "113.97272331268462",
     true, 4, 4, 4673, 4679, 0, 4},
    {"FINRA-30", kMpk, 250, 0xf3d7b81c7a43f67b, "150.91452520058903",
     true, 1, 1, 1242, 1245, 0, 2},
    {"FINRA-30", kMpk, 400, 0xf3d7b81c7a43f67b, "150.91452520058903",
     true, 1, 1, 1242, 1245, 0, 2},
    {"FINRA-30", kMpk, 1000, 0xf3d7b81c7a43f67b, "150.91452520058903",
     true, 1, 1, 1242, 1245, 0, 2},
    {"FINRA-30", kMpk, 5000, 0xf3d7b81c7a43f67b, "150.91452520058903",
     true, 1, 1, 1242, 1245, 0, 2},
    {"FINRA-30", kPool, 60, 0x77d35837cee626db, "83.671580742986407",
     false, 7, 30, 22264, 22294, 0, 0},
    {"FINRA-30", kPool, 120, 0x4cf443c1c3e0797d, "96.166859155799699",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-30", kPool, 250, 0x4cf443c1c3e0797d, "96.166859155799699",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-30", kPool, 400, 0x4cf443c1c3e0797d, "96.166859155799699",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-30", kPool, 1000, 0x4cf443c1c3e0797d, "96.166859155799699",
     true, 1, 1, 0, 4, 0, 0},
    {"FINRA-30", kPool, 5000, 0x4cf443c1c3e0797d, "96.166859155799699",
     true, 1, 1, 0, 4, 0, 0},
};
// clang-format on

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string exact(TimeMs t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", t);
  return buf;
}

std::vector<Workflow> golden_workflows() {
  std::vector<Workflow> out = evaluation_suite();
  out.push_back(make_finra(30));
  return out;
}

class PgpGoldenTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PgpGoldenTest, PlansMatchTheRecordedTable) {
  const Workflow wf = golden_workflows()[GetParam()];
  std::vector<FunctionBehavior> profiles;
  for (const FunctionSpec& f : wf.functions()) profiles.push_back(f.behavior);
  std::size_t checked = 0;
  for (const Golden& g : kGolden) {
    if (wf.name() != g.workflow) continue;
    for (std::size_t threads : {1u, 4u}) {
      PgpConfig config;
      config.mode = g.mode;
      config.deploy_threads = threads;
      const PgpScheduler scheduler(config, wf, profiles);
      const PgpResult r = scheduler.schedule(g.slo);
      const std::string label = std::string(g.workflow) + " " +
                                to_string(g.mode) + " slo=" +
                                exact(g.slo) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(fnv1a64(serialize_plan(r.plan)), g.plan_fnv) << label;
      EXPECT_EQ(exact(r.predicted_latency_ms), g.predicted) << label;
      EXPECT_EQ(r.slo_met, g.slo_met) << label;
      EXPECT_EQ(r.processes, g.processes) << label;
      EXPECT_EQ(r.stats.outer_iterations, g.outer_iterations) << label;
      EXPECT_EQ(r.stats.kl_evaluations, g.kl_evaluations) << label;
      EXPECT_EQ(r.stats.predictor_calls, g.predictor_calls) << label;
      if (threads == 1) {
        // Speculative waves on a pool can race on a cache slot, so the
        // split of hits and misses is pinned on the sequential search.
        const PredictionCache::Stats cache =
            scheduler.predictor().cache_stats();
        EXPECT_EQ(cache.hits, g.cache_hits) << label;
        EXPECT_EQ(cache.misses, g.cache_misses) << label;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3u * 6u * 2u) << wf.name();
}

INSTANTIATE_TEST_SUITE_P(
    Suite, PgpGoldenTest,
    ::testing::Range<std::size_t>(0, golden_workflows().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = golden_workflows()[info.param].name();
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace chiron
