//go:build race

package server

// raceEnabled reports a -race build. Its runtime drops a quarter of all
// sync.Pool Puts at random and allocates for its own bookkeeping, so
// allocation budgets that rest on a pool cannot be held there.
const raceEnabled = true
