// Must-fire: both loops iterate unordered containers declared only in
// headers — balances_ in the sibling sibling_fire.hpp, seen_ in the included
// sibling_internal.hpp. The hash-order sums must be flagged all the same.
#include "sibling_fire.hpp"
#include "sibling_internal.hpp"

double Ledger::total() const {
  double sum = 0.0;
  for (const auto& [account, amount] : balances_) {
    sum += amount;
  }
  return sum;
}

long count_seen(const Tally& tally) {
  long acc = 0;
  for (const long id : tally.seen_) {
    acc += id;
  }
  return acc;
}
