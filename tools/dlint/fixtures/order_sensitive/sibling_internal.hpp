// Internal state shared by sibling_fire.cpp; an *_internal.hpp it includes.
#pragma once
#include <unordered_set>

struct Tally {
  std::unordered_set<long> seen_;
};
