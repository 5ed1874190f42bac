// Declarations for sibling_fire.cpp: the unordered member lives here, away
// from the loops that iterate it.
#pragma once
#include <unordered_map>

class Ledger {
 public:
  double total() const;

 private:
  std::unordered_map<int, double> balances_;
};
