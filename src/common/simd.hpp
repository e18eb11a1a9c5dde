// Kept only because perfbench/ (benchmark-owned) prints simd::to_string.
#pragma once

namespace femto::simd {

enum class Level : int { kPortable = 0 };

inline Level level() { return Level::kPortable; }
inline const char* to_string(Level) { return "portable"; }

}  // namespace femto::simd
